// Package smartdrill is a Go implementation of the smart drill-down
// operator from "Interactive Data Exploration with Smart Drill-Down"
// (Joglekar, Garcia-Molina, Parameswaran — ICDE 2016).
//
// Smart drill-down explores a relational table through *rules*: patterns
// like (Walmart, ?, ?) that cover every tuple matching their non-wildcard
// values. Drilling down on a rule expands it into the k super-rules that
// jointly maximize Σ W(r)·MCount(r) — coverage of many tuples, weighted by
// how specific each rule is, with marginal counting driving diversity.
//
// Basic use:
//
//	t, _ := smartdrill.LoadCSV("sales.csv", nil)
//	e, _ := smartdrill.New(t, smartdrill.WithK(3))
//	_ = e.DrillDown(e.Root())            // expand the whole-table rule
//	fmt.Println(e.Render())              // paper-style rule table
//	_ = e.DrillDown(e.Root().Children[2]) // drill into one result
//
// Large tables can be explored from dynamically maintained in-memory
// samples (WithSampling), trading exact counts for interactive latency as
// in Section 4 of the paper.
package smartdrill

import (
	"context"
	"io"
	"math/rand"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Table is a dictionary-encoded relational table; build one with LoadCSV,
// ReadCSV, or NewTableBuilder.
type Table = table.Table

// TableBuilder assembles a Table row by row.
type TableBuilder = table.Builder

// Rule is a drill-down pattern: one value or wildcard per column.
type Rule = rule.Rule

// Node is one displayed rule in an Engine's drill-down tree.
type Node = drill.Node

// Weighter scores rules by their instantiated columns; see SizeWeight,
// BitsWeight, LinearWeight.
type Weighter = weight.Weighter

// Star is the wildcard value within a Rule.
const Star = rule.Star

// NewTableBuilder starts a table with the given categorical columns and
// optional measure (numeric) columns.
func NewTableBuilder(columns, measures []string) (*TableBuilder, error) {
	return table.NewBuilder(columns, measures)
}

// LoadCSV reads a table from a CSV file; columns named in measures are
// parsed as float64 measure columns, all others are categorical.
func LoadCSV(path string, measures []string) (*Table, error) {
	return table.ReadCSVFile(path, measures)
}

// ReadCSV reads a table from a CSV stream.
func ReadCSV(r io.Reader, measures []string) (*Table, error) {
	return table.ReadCSV(r, measures)
}

// AutoOptions tunes numeric-column detection in LoadCSVAuto/ReadCSVAuto.
type AutoOptions = table.AutoOptions

// LoadCSVAuto reads a CSV detecting numeric columns automatically: any
// all-numeric column with more distinct values than AutoOptions.MaxDistinct
// is bucketized into a categorical "<name>_bucket" column and kept as a
// measure for Sum aggregation (Section 6.2 of the paper). It returns the
// table and the names of the detected numeric columns.
func LoadCSVAuto(path string, opts AutoOptions) (*Table, []string, error) {
	return table.ReadCSVAutoFile(path, opts)
}

// ReadCSVAuto is LoadCSVAuto over a stream.
func ReadCSVAuto(r io.Reader, opts AutoOptions) (*Table, []string, error) {
	return table.ReadCSVAuto(r, opts)
}

// SizeWeight returns the paper's default Size weighting: W(r) = number of
// instantiated columns.
func SizeWeight(t *Table) Weighter { return weight.NewSize(t.NumCols()) }

// BitsWeight weighs each instantiated column by ⌈log2(distinct values)⌉,
// favoring columns that convey more information.
func BitsWeight(t *Table) Weighter { return weight.BitsFor(t) }

// SizeMinusOneWeight is W(r) = max(0, size−1): only multi-column rules
// score, reproducing Figure 7 of the paper.
func SizeMinusOneWeight() Weighter { return weight.SizeMinusOne{} }

// LinearWeight is the parametric family (Σ_c w_c)^power over instantiated
// columns; Size and Bits are special cases. Use it to favor or ignore
// specific columns.
func LinearWeight(perColumn []float64, power float64, label string) Weighter {
	return weight.NewLinear(perColumn, power, label)
}

// WithPreferences wraps a weighter with per-column interest adjustments
// (Section 6.1): favored columns earn bonus weight when instantiated,
// ignored columns contribute nothing. Unknown column names yield an error.
func WithPreferences(t *Table, inner Weighter, favor, ignore []string, bonus float64) (Weighter, error) {
	toMask := func(names []string) (rule.Mask, error) {
		var m rule.Mask
		for _, name := range names {
			c, err := t.ColumnIndex(name)
			if err != nil {
				return m, err
			}
			m.Set(c)
		}
		return m, nil
	}
	fav, err := toMask(favor)
	if err != nil {
		return nil, err
	}
	ign, err := toMask(ignore)
	if err != nil {
		return nil, err
	}
	return weight.Preference{Inner: inner, Favored: fav, Ignored: ign, Bonus: bonus}, nil
}

// Engine is an interactive smart drill-down session over one table.
type Engine struct {
	s   *drill.Session
	tab *Table
	cfg drill.Config
}

// Option configures an Engine.
type Option func(*drill.Config)

// WithK sets the number of rules returned per drill-down (default 3).
func WithK(k int) Option { return func(c *drill.Config) { c.K = k } }

// WithWeighter sets the rule-weighting function (default Size).
func WithWeighter(w Weighter) Option { return func(c *drill.Config) { c.Weighter = w } }

// WithMaxWeight sets BRS's mw pruning parameter. Larger values guarantee
// optimality for heavier rules at higher cost; 0 (default) estimates it
// per Section 6.1 on a large view, using the weighter's bound elsewhere.
func WithMaxWeight(mw float64) Option { return func(c *drill.Config) { c.MaxWeight = mw } }

// WithSampling enables the dynamic sample handler: memory tuples of budget
// across samples and minSS minimum effective sample size per drill-down.
func WithSampling(memory, minSS int) Option {
	return func(c *drill.Config) {
		c.SampleMemory = memory
		c.MinSampleSize = minSS
	}
}

// WithSampleThreshold routes expansions by (sub)view size when sampling is
// enabled: views that can exceed rows tuples are searched on a uniform
// sample and display provisional, confidence-bounded counts; smaller views
// are searched exactly. 0 (the default) samples every expansion.
func WithSampleThreshold(rows int) Option {
	return func(c *drill.Config) { c.SampleThreshold = rows }
}

// WithPrefetch enables background-style sample reallocation after each
// expansion, so the next drill-down is likely served from memory.
func WithPrefetch() Option { return func(c *drill.Config) { c.Prefetch = true } }

// WithSum displays and optimizes the Sum of the named measure column
// instead of tuple counts (Section 6.3).
func WithSum(t *Table, measure string) (Option, error) {
	m, err := t.MeasureIndex(measure)
	if err != nil {
		return nil, err
	}
	return func(c *drill.Config) {
		c.Agg = score.SumAgg{Measure: m, Label: measure}
	}, nil
}

// WithSeed fixes the sampling RNG for reproducible sessions.
func WithSeed(seed int64) Option { return func(c *drill.Config) { c.Seed = seed } }

// WithWorkers parallelizes drill-down computation across the given number
// of goroutines. Results are unchanged, bit-identical under Count and Sum.
// 0 (the default) saturates the hardware; 1 is a guaranteed-serial
// session.
func WithWorkers(n int) Option { return func(c *drill.Config) { c.Workers = n } }

// SearchService is the dataset-scoped seam every BRS invocation goes
// through: one answer cache of completed expansions, singleflight
// collapsing of concurrent identical searches, and cache counters.
// Engines on the same table that share a service share its cache; an
// engine built without one gets a private service, so repeated
// expansions within a single session are still served from cache.
type SearchService = search.Service

// SearchServiceConfig tunes a SearchService (cache bound, off switch).
type SearchServiceConfig = search.Config

// SearchServiceCounters is a snapshot of a service's cache activity.
type SearchServiceCounters = search.Counters

// NewSearchService builds a search service to share across engines on
// one dataset (see WithSearchService).
func NewSearchService(cfg SearchServiceConfig) *SearchService { return search.NewService(cfg) }

// WithSearchService routes the engine's searches through a shared
// dataset-scoped service: sessions sharing one service share its answer
// cache, and concurrent identical expansions collapse to one BRS run.
// The service must belong to the engine's table — cache keys carry rule
// identity, not table identity.
func WithSearchService(svc *SearchService) Option {
	return func(c *drill.Config) { c.Search = svc }
}

// WithCacheDisabled gives the engine a private search service with the
// answer cache and singleflight off — the ablation switch: every expansion
// executes, and results are bit-identical to the cached path. It replaces
// a service set before it (WithSearchService), and one set after it
// replaces it.
func WithCacheDisabled() Option {
	return func(c *drill.Config) { c.Search = search.NewService(search.Config{Disabled: true}) }
}

// New starts a drill-down session on t.
func New(t *Table, opts ...Option) (*Engine, error) {
	var cfg drill.Config
	for _, o := range opts {
		o(&cfg)
	}
	s, err := drill.NewSession(t, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{s: s, tab: t, cfg: cfg}, nil
}

// Root returns the trivial rule covering the whole table — the starting
// point of every session.
func (e *Engine) Root() *Node { return e.s.Root() }

// Table returns the session's table.
func (e *Engine) Table() *Table { return e.tab }

// DrillDown expands n into the best rule list of super-rules of n's rule.
// If n is already expanded it is collapsed and re-expanded.
func (e *Engine) DrillDown(n *Node) error { return e.s.Expand(n) }

// DrillDownCtx is DrillDown under a cancellation context: the BRS search
// checks ctx between counting passes and aborts with ctx's error, so an
// abandoned request stops paying for table passes almost immediately. A
// canceled expansion leaves n collapsed, records the partial search's
// statistics, and leaves the session fully usable.
func (e *Engine) DrillDownCtx(ctx context.Context, n *Node) error {
	return e.s.ExpandCtx(ctx, n)
}

// DrillDownStar expands n like DrillDown but requires every returned rule
// to instantiate the named column — the paper's "click on a ?" operation.
func (e *Engine) DrillDownStar(n *Node, column string) error {
	return e.DrillDownStarCtx(context.Background(), n, column)
}

// DrillDownStarCtx is DrillDownStar under a cancellation context (see
// DrillDownCtx).
func (e *Engine) DrillDownStarCtx(ctx context.Context, n *Node, column string) error {
	c, err := e.tab.ColumnIndex(column)
	if err != nil {
		return err
	}
	return e.s.ExpandStarCtx(ctx, n, c)
}

// Collapse removes n's children (roll-up).
func (e *Engine) Collapse(n *Node) { e.s.Collapse(n) }

// DrillDownStream expands n incrementally: each rule is appended to n's
// children and passed to onRule as soon as the greedy search finds it
// (Section 6.1's anytime operation). The search stops when onRule returns
// false, after maxRules rules (0 = unbounded), or when budget elapses
// (0 = unbounded). onRule may be nil.
func (e *Engine) DrillDownStream(n *Node, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	return e.s.ExpandStream(n, maxRules, budget, onRule)
}

// DrillDownStreamCtx is DrillDownStream under a cancellation context: the
// search additionally stops between counting passes when ctx fires,
// returning ctx's error. Rules streamed before the cancellation stay in
// the tree; the session remains fully usable.
func (e *Engine) DrillDownStreamCtx(ctx context.Context, n *Node, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	return e.s.ExpandStreamCtx(ctx, n, maxRules, budget, onRule)
}

// WithDegraded marks ctx for degraded-mode expansion — the serving
// layer's graceful-degradation ladder. A degraded drill on a sampled
// session is forced through the sampled/provisional pipeline regardless
// of the session's SampleThreshold (a cheap, confidence-bounded answer
// instead of full table passes), and post-expansion sample prefetch is
// skipped. Sessions without sampling run unchanged apart from the
// prefetch skip. Serving layers set this when under admission pressure.
func WithDegraded(ctx context.Context) context.Context {
	return drill.WithDegraded(ctx)
}

// IsDegraded reports whether ctx carries the WithDegraded mark.
func IsDegraded(ctx context.Context) bool { return drill.DegradedFrom(ctx) }

// RefineNode replaces a provisional (sample-estimated) node count with the
// exact aggregate, learned with one accounted pass over the table — the
// provisional→exact half of the approximate pipeline. It reports whether
// the node changed; exact nodes and nodes no longer in the displayed tree
// (orphaned by a collapse or re-expansion) are untouched.
func (e *Engine) RefineNode(n *Node) bool { return e.s.RefineNode(n) }

// ProvisionalNodes lists displayed nodes whose counts are still sample
// estimates, in display order — the refiner's work queue.
func (e *Engine) ProvisionalNodes() []*Node { return e.s.ProvisionalNodes() }

// ProvisionalNodesIn is ProvisionalNodes restricted to n's subtree.
func (e *Engine) ProvisionalNodesIn(n *Node) []*Node { return e.s.ProvisionalNodesIn(n) }

// ConfidenceInterval returns 95% bounds on a node's true count. For exact
// counts — and for estimates without interval support (Sum aggregates) —
// both bounds equal Count. The node's explicit HasCI flag decides which, so
// a provisional count whose genuine bound happens to be [0, 0] is reported
// as that interval rather than misread as exact.
func (e *Engine) ConfidenceInterval(n *Node) (lo, hi float64) {
	if n.Exact || !n.HasCI {
		return n.Count, n.Count
	}
	return n.CILow, n.CIHigh
}

// Render returns the current drill-down tree as an aligned text table in
// the style of the paper's figures.
func (e *Engine) Render() string { return e.s.Render() }

// RenderNode renders only the subtree under n.
func (e *Engine) RenderNode(n *Node) string { return e.s.RenderNode(n) }

// DescribeRule renders a node's rule as human-readable column=value pairs.
func (e *Engine) DescribeRule(n *Node) string {
	cells := e.tab.DecodeRule(n.Rule)
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return "(" + out + ")"
}

// LastAccessMethod reports how the most recent drill-down obtained tuples:
// "direct", "Find", "Combine", or "Create".
func (e *Engine) LastAccessMethod() string { return e.s.LastMethod }

// SearchStats holds BRS search statistics (passes, candidates counted,
// pruned and reused, rows scanned, posting entries read).
type SearchStats = brs.Stats

// LastSearchStats returns the BRS statistics of the most recent
// drill-down.
func (e *Engine) LastSearchStats() SearchStats { return e.s.LastStats }

// TotalSearchStats returns BRS statistics accumulated across every
// drill-down of this engine's session, plus the passes its refines and
// traditional listings read — the cross-expansion view of how much search
// work the candidate caches and posting lists absorbed.
func (e *Engine) TotalSearchStats() SearchStats { return e.s.TotalStats }

// TraditionalGroup is one value group of a classic drill-down.
type TraditionalGroup struct {
	Value string
	Count float64
}

// TraditionalDrillDown performs the classic OLAP drill-down on one column
// under n: every distinct value with its count, ordered by count. Provided
// for comparison (Figure 4); smart drill-down generalizes it.
func (e *Engine) TraditionalDrillDown(n *Node, column string) ([]TraditionalGroup, error) {
	c, err := e.tab.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	groups, err := e.s.Traditional(n, c)
	if err != nil {
		return nil, err
	}
	out := make([]TraditionalGroup, len(groups))
	for i, g := range groups {
		out[i] = TraditionalGroup{Value: g.Value, Count: g.Count}
	}
	return out, nil
}

// SearchService returns the engine's search service — the shared one it
// was configured with, or its private one — for cache-counter inspection.
func (e *Engine) SearchService() *SearchService { return e.s.Search() }

func (e *Engine) agg() score.Aggregator { return e.s.Agg() }

// EncodeRule translates column-name → value pairs into a Rule over e's
// table (unnamed columns are wildcards).
func (e *Engine) EncodeRule(pattern map[string]string) (Rule, error) {
	return e.tab.EncodeRule(pattern)
}

// FindNode locates the displayed node with the given rule, or nil.
func (e *Engine) FindNode(r Rule) *Node {
	var find func(n *Node) *Node
	find = func(n *Node) *Node {
		if n.Rule.Equal(r) {
			return n
		}
		for _, c := range n.Children {
			if f := find(c); f != nil {
				return f
			}
		}
		return nil
	}
	return find(e.Root())
}

// Validate sanity-checks a custom weighter against the paper's
// requirements (non-negativity and monotonicity) on random masks.
func Validate(w Weighter, t *Table) error {
	return weight.CheckMonotone(w, t.NumCols(), 200, rand.New(rand.NewSource(1)))
}

// SaveState writes the current drill-down tree as JSON, so an exploration
// can be resumed later with LoadState against the same dataset.
func (e *Engine) SaveState(w io.Writer) error { return e.s.Save(w) }

// LoadState replaces the drill-down tree with a previously saved one. The
// engine's table must have the same columns and contain every value the
// snapshot references.
func (e *Engine) LoadState(r io.Reader) error { return e.s.Load(r) }

// Revision identifies the state SaveState would write: it moves whenever
// the drill-down tree changes (drill-down, collapse, refinement, prefetch
// upgrade, LoadState) and never otherwise, and is never 0. A serving layer
// that persists snapshots saves when it differs from the revision it last
// wrote, instead of tracking which calls mutate.
func (e *Engine) Revision() uint64 { return e.s.Revision() }
