// Package drill implements the interactive smart drill-down session of
// Section 2.3: a displayed tree of rules the analyst expands (by clicking a
// rule or a star within a rule) and collapses (roll-up). Expansions run BRS
// on a zero-copy view of the rule's coverage — answered by the table's
// inverted index — or, for large tables, on a uniform sample served by the
// SampleHandler, scaling displayed counts back to table estimates.
package drill

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"smartdrill/internal/baseline"
	"smartdrill/internal/brs"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/spans"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Config parameterizes a session. Zero values get paper defaults.
type Config struct {
	// K is the number of rules per expansion (paper default 3; the
	// experiments use 4).
	K int
	// MaxWeight is BRS's mw parameter; 0 lets each expansion estimate it
	// (EstimateMaxWeight) above probeFloor, or use the weighter's bound.
	MaxWeight float64
	// Weighter scores rules; nil means Size weighting.
	Weighter weight.Weighter
	// Agg is the displayed aggregate; nil means Count.
	Agg score.Aggregator
	// SampleMemory (M) and MinSampleSize (minSS) enable the SampleHandler
	// when both are positive and the table is larger than MinSampleSize;
	// otherwise expansions scan the table directly.
	SampleMemory  int
	MinSampleSize int
	// SampleThreshold routes individual expansions when the handler is
	// enabled: a (sub)view that can exceed this many rows is searched on a
	// uniform sample (provisional, confidence-bounded results), smaller
	// ones exactly through the inverted index. 0 samples every expansion
	// (the pre-threshold behavior).
	SampleThreshold int
	// Prefetch rebuilds samples for likely next drill-downs after each
	// expansion (Section 4.3) and upgrades displayed counts to exact.
	Prefetch bool
	// Seed makes sampling deterministic; 0 means seed 1.
	Seed int64
	// Workers parallelizes BRS table passes across goroutines; 0 picks the
	// hardware core count under the Count aggregate (serial otherwise), 1
	// runs serially. Results are identical under the Count aggregate at any
	// worker count.
	Workers int
	// ProbModel predicts which displayed rule the analyst drills next,
	// steering prefetch memory allocation (Section 4.1). Nil means the
	// uniform distribution. drill sessions feed the model their own
	// history automatically.
	ProbModel sampling.ProbModel
	// Search routes every BRS invocation of this session through a shared,
	// dataset-scoped search service (answer cache, singleflight, warming
	// counters). Sessions on one dataset that share a service share its
	// cache: a repeated expansion — by this session or any other — is
	// served as a clone of the completed result with zero counting passes.
	// Nil gives the session a private service, so caching still works
	// within the session; a service built with search.Config.Disabled is the
	// ablation switch: every expansion executes, bit-identical to the
	// cached path.
	Search *search.Service
}

// Node is one displayed rule. Count is the displayed aggregate (estimated
// when served from a sample; Exact reports which).
type Node struct {
	Rule     rule.Rule
	Weight   float64
	Count    float64
	Exact    bool
	Children []*Node

	// HasCI reports that CILow/CIHigh hold a genuine 95% interval on the
	// true count. The explicit flag (rather than a CILow==CIHigh==0
	// sentinel) lets a provisional node carry a true [0, 0] bound without
	// being misread as exact; it is false for exact counts and for
	// estimates without interval support (Sum aggregates).
	HasCI bool
	// CILow and CIHigh bound the true count at 95% confidence when HasCI
	// is set; both equal Count otherwise.
	CILow, CIHigh float64

	// id is the session-scoped stable identifier assigned when the node
	// entered the displayed tree; see Session.NodeByID.
	id uint64

	parent *Node
}

// Expanded reports whether the node currently shows children.
func (n *Node) Expanded() bool { return len(n.Children) > 0 }

// ID returns the node's stable identifier within its session: assigned
// once when an expansion (or session creation, for the root) puts the node
// on display, never reused while the session lives. Serving layers expose
// it as the wire address of the node.
func (n *Node) ID() uint64 { return n.id }

// Session is an interactive drill-down over one table.
//
// A Session is a single-writer structure with no mutex of its own: no
// method — and no read of a Node it handed out — may overlap another. The
// owner serializes: the serving layer keeps each Session behind a session
// door that runs one visit at a time, and single-goroutine embedders need
// nothing at all.
type Session struct {
	tab     *table.Table
	store   *storage.Store
	handler *sampling.Handler
	svc     *search.Service
	cfg     Config
	root    *Node

	// LastMethod records how the most recent expansion obtained its
	// tuples: "direct" or a sampling.Method name.
	LastMethod string
	// LastStats holds the BRS statistics of the most recent expansion.
	LastStats brs.Stats
	// TotalStats accumulates BRS statistics across every expansion of the
	// session, and the reads of its refines and traditional listings —
	// repeated drill-downs share the dataset's warmed posting lists, so
	// TotalStats.CandidatesReused and .PostingsRead measure how much of a
	// session's search work the caches absorbed.
	TotalStats brs.Stats

	// nextID feeds the session-scoped node ID sequence; byID is the O(1)
	// id→node index of every currently displayed node, maintained by
	// adopt/forget so serving layers resolve wire addresses without tree
	// walks.
	nextID uint64
	byID   map[uint64]*Node

	// rev counts changes to what Save writes; see Revision.
	rev uint64

	// unbooked is work done for an expansion outside its search — grouping
	// the table, or a sample of it, into distinct tuples, or the mw probe —
	// held until recordStats files it with the search's own.
	unbooked brs.Stats
}

// Revision identifies the state Save would write: it moves whenever the
// displayed tree or the ID sequence changes (a node adopted, a subtree
// collapsed, a count refined or upgraded by prefetch, a snapshot loaded)
// and never otherwise, so equal revisions of one session mean equal
// snapshots. An owner that persists snapshots compares it with the
// revision it last wrote instead of tracking which calls mutate. A new
// session is at revision 1 — its root's adoption — so 0 names no state.
func (s *Session) Revision() uint64 { return s.rev }

// adopt assigns n the next stable ID and registers it in the id index.
// Every node enters the displayed tree through here exactly once.
func (s *Session) adopt(n *Node) {
	s.nextID++
	n.id = s.nextID
	s.byID[n.id] = n
	s.rev++
}

// forget removes a subtree's nodes from the id index; their IDs are never
// reused, so stale wire addresses resolve to "unknown node" rather than to
// an unrelated later node.
func (s *Session) forget(nodes []*Node) {
	for _, n := range nodes {
		delete(s.byID, n.id)
		s.forget(n.Children)
	}
}

// NodeByID resolves a stable node ID in O(1), or nil when no displayed
// node carries it (never assigned, or removed by collapse/re-expansion).
func (s *Session) NodeByID(id uint64) *Node { return s.byID[id] }

// NewSession starts a session on t. The root node is the trivial rule with
// the exact table count, as in Table 1 of the paper.
func NewSession(t *table.Table, cfg Config) (*Session, error) {
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.Weighter == nil {
		cfg.Weighter = weight.NewSize(t.NumCols())
	}
	if cfg.Agg == nil {
		cfg.Agg = score.CountAgg{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &Session{
		tab:   t,
		store: storage.NewStore(t),
		svc:   cfg.Search,
		cfg:   cfg,
		byID:  make(map[uint64]*Node),
	}
	if s.svc == nil {
		// No shared dataset service: give the session a private one, so
		// every BRS invocation still flows through the single seam (and
		// repeated expansions within the session are cached).
		s.svc = search.NewService(search.Config{})
	}
	if cfg.SampleMemory > 0 && cfg.MinSampleSize > 0 && t.NumRows() > cfg.MinSampleSize {
		// The budget is row ids of this table: beyond its row count it buys
		// nothing, and the prefetch allocator's tables grow with it — a
		// client's 2 000 000 000 must not become a 16 GB allocation.
		memory := min(cfg.SampleMemory, t.NumRows())
		h, err := sampling.NewHandler(s.store, memory, cfg.MinSampleSize, sampling.NewTestRNG(cfg.Seed))
		if err != nil {
			return nil, err
		}
		// How the handler serves samples is decided once, by the session's
		// own weighter, and resolved by the first drill that samples: creating
		// a session reads nothing.
		h.ServeGrouped(func() *table.Table {
			if !s.groupable(s.cfg.Weighter, t.NumRows()) {
				return nil
			}
			return s.distinct()
		})
		s.handler = h
	}
	// The root's count is the table's total mass; for the two aggregates
	// there are, the table already knows it.
	var rootCount float64
	switch agg := cfg.Agg.(type) {
	case score.CountAgg:
		rootCount = float64(t.NumRows())
	case score.SumAgg:
		rootCount = t.MeasureMass(agg.Measure)
	default:
		for i := 0; i < t.NumRows(); i++ {
			rootCount += cfg.Agg.Mass(t, i)
		}
	}
	s.root = &Node{
		Rule:   rule.Trivial(t.NumCols()),
		Weight: 0,
		Count:  rootCount,
		Exact:  true,
	}
	s.adopt(s.root)
	return s, nil
}

// Root returns the displayed tree's root.
func (s *Session) Root() *Node { return s.root }

// K returns the normalized rules-per-expansion setting.
func (s *Session) K() int { return s.cfg.K }

// Agg returns the normalized display aggregate (never nil).
func (s *Session) Agg() score.Aggregator { return s.cfg.Agg }

// Store exposes the scan-accounting store (for experiment reporting).
func (s *Session) Store() *storage.Store { return s.store }

// Search exposes the session's search service — shared when the session
// was configured with one, private otherwise — for cache-counter
// inspection and warm precomputation.
func (s *Session) Search() *search.Service { return s.svc }

// Handler exposes the sample handler, or nil when expansions are direct.
func (s *Session) Handler() *sampling.Handler { return s.handler }

// Expand performs a rule drill-down on n (Problem 1, rule variant): n's
// children become the best rule list of super-rules of n.Rule. Expanding an
// already-expanded node first collapses it, matching the paper's toggle UI.
func (s *Session) Expand(n *Node) error {
	return s.ExpandCtx(context.Background(), n)
}

// ExpandCtx is Expand under a cancellation context: the BRS search checks
// ctx between counting passes and aborts with ctx's error. A canceled
// expansion leaves n collapsed (its pre-existing children are already
// gone — expansion is a collapse-and-replace) and the session fully
// usable; the partial search's statistics are still recorded.
func (s *Session) ExpandCtx(ctx context.Context, n *Node) error {
	return s.expand(ctx, n, s.cfg.Weighter, search.KindBatch, 0, 0, nil)
}

// ExpandStar performs a star drill-down on column c of n (Problem 1, star
// variant): every returned rule instantiates column c, achieved by zeroing
// the weight of rules leaving c starred (Section 3.1 reduction).
func (s *Session) ExpandStar(n *Node, c int) error {
	return s.ExpandStarCtx(context.Background(), n, c)
}

// ExpandStarCtx is ExpandStar under a cancellation context (see ExpandCtx).
func (s *Session) ExpandStarCtx(ctx context.Context, n *Node, c int) error {
	if c < 0 || c >= s.tab.NumCols() {
		return fmt.Errorf("drill: column %d out of range [0,%d)", c, s.tab.NumCols())
	}
	if n.Rule[c] != rule.Star {
		return fmt.Errorf("drill: column %d of rule is already instantiated", c)
	}
	return s.expand(ctx, n, weight.StarConstraint{Inner: s.cfg.Weighter, Column: c}, search.KindBatch, 0, 0, nil)
}

// Collapse removes n's children — the roll-up of Section 2.3. The removed
// subtree's node IDs leave the id index and are never reused.
func (s *Session) Collapse(n *Node) {
	if len(n.Children) == 0 {
		return
	}
	s.forget(n.Children)
	n.Children = nil
	s.rev++
}

// expand is the one expansion path — rule, star and streamed drills. A
// search.KindBatch drill adopts the complete rule list in display order
// once the search returns; a search.KindStream one (Section 6.1) adopts each
// rule as the greedy search selects it, hands it to onRule, and stops after
// maxRules rules (0 = unbounded), when budget elapses (0 = unbounded) or when
// onRule returns false.
func (s *Session) expand(ctx context.Context, n *Node, w weight.Weighter, kind search.Kind, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	if n.Expanded() {
		s.Collapse(n)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.observeDrill(n)

	degraded := DegradedFrom(ctx)
	req := s.searchRequest(kind, n.Rule, w, degraded)
	// cov is the searched coverage, of which the children's display needs
	// the scale and the exactness; bound, the enclosing view's scaled size,
	// clamps the intervals only a sample's counts get. On a cache hit
	// Resolve never runs and the replayed results are exact with scale 1 —
	// the initial values.
	cov := coverage{scale: 1, exact: true}
	var bound float64
	req.Resolve = func() (*table.View, float64, bool, error) {
		resolved, err := s.coveredView(n.Rule, w, degraded)
		if err != nil {
			return nil, 0, false, err
		}
		cov = resolved
		if !cov.exact {
			// The tuples the view holds, not the rows it holds them in:
			// scaled by distinct tuples the bound would clamp every
			// interval's upper end down onto its lower one.
			bound = cov.scale * float64(cov.view.NumTuples())
		}
		return cov.view, cov.scale, cov.exact, nil
	}
	req.MaxWeightFor = func(*table.View) float64 { return s.maxWeightFor(ctx, n.Rule, cov, w, maxRules) }
	addChild := func(r brs.Result) *Node {
		child := &Node{
			Rule:   r.Rule,
			Weight: r.Weight,
			Count:  r.Count,
			Exact:  cov.exact,
			parent: n,
		}
		child.CILow, child.CIHigh, child.HasCI = countCI(s.cfg.Agg, cov.exact, cov.scale, r.Count, bound)
		s.adopt(child)
		n.Children = append(n.Children, child)
		return child
	}
	if kind == search.KindStream {
		req.MaxRules = maxRules
		if budget > 0 {
			// A deadline-bounded stream can truncate anywhere, so the service
			// runs it directly — never cached, never joined by singleflight.
			// Budget-free streams run to completion and are cached like batch
			// expansions, replayed rule by rule through the same yield.
			req.Deadline = time.Now().Add(budget)
		}
		req.Yield = func(r brs.Result) bool {
			child := addChild(r)
			return onRule == nil || onRule(child)
		}
	}
	resp, err := s.svc.Run(ctx, req)
	if resp.Cached {
		// The view was never resolved: the expansion is a clone of a
		// completed identical search.
		s.LastMethod = "cache"
	}
	// A canceled search still did real work; record it before bailing so
	// the session's accounting (and the caller's SearchStats view) shows
	// the aborted passes. Rules a stream delivered before the error stay.
	s.recordStats(resp.Stats)
	if err != nil {
		return err
	}
	if kind == search.KindBatch {
		n.Children = make([]*Node, 0, len(resp.Results))
		for _, r := range resp.Results {
			addChild(r)
		}
	}

	// Prefetch is pure background work; a degraded (overloaded) server
	// skips it — the ladder's first rung after forcing the sampled path.
	if s.handler != nil && s.cfg.Prefetch && !degraded {
		s.prefetch()
	}
	return nil
}

// maxWeightFor returns the mw an expansion of r searching cov — r's rows,
// distinct tuples or sample tuples — under w for maxRules rules (0: the
// session's k) runs at. It probes cov for it only where cov holds more than
// probeFloor tuples, booking what the probe read to the expansion and its
// time to ctx's mw span.
func (s *Session) maxWeightFor(ctx context.Context, r rule.Rule, cov coverage, w weight.Weighter, maxRules int) float64 {
	v := cov.view
	if v.NumRows() <= probeFloor {
		return w.MaxWeight(v.NumCols())
	}
	defer spans.Since(ctx, spans.MW, time.Now())
	// Probe with the number of rules this expansion will request, so the
	// weight cap fits the rule list being built — capped, since the probe
	// runs before a stream's deadline exists and its cost grows with k, while
	// past a screenful of rules the estimate has long saturated.
	const maxProbeK = 100
	k := s.cfg.K
	if maxRules > 0 {
		k = maxRules
	}
	k = min(k, maxProbeK)
	mw, read := estimateMaxWeight(ctx, v, w, k, s.probeSeed(r, cov, k))
	s.unbooked.Add(read)
	return mw
}

// probeSeed seeds the probe of an expansion of r searching cov for k rules
// from what the expansion asks, never from the session that asks it: the
// dataset (its table's shape — a session drills one table), the rule,
// whether cov is r's exact coverage or a sample — and then the sample's
// tuples and scale — and k. An exact expansion's estimate, and with it its
// answer, is then a function of fields the answer cache keys, and two
// sessions that differ only in Seed share it; Seed fixes what samples draw.
func (s *Session) probeSeed(r rule.Rule, cov coverage, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%d/%s/k=%d", s.tab.NumRows(), s.tab.NumCols(), r.Key(), k)
	if !cov.exact {
		fmt.Fprintf(h, "/sample %dx%g", cov.view.NumTuples(), cov.scale)
	}
	return int64(h.Sum64())
}

// searchRequest assembles the canonical request for one expansion of this
// session: every identity field the search service keys on, plus the
// routing flag (Sampled) that decides whether the request may touch the
// shared answer cache at all. Kind-specific fields
// (Resolve, MaxWeightFor, Yield, deadlines) are filled by the caller.
func (s *Session) searchRequest(kind search.Kind, r rule.Rule, w weight.Weighter, degraded bool) search.Request {
	return search.Request{
		Kind:      kind,
		Rule:      r,
		K:         s.cfg.K,
		Weighter:  w,
		Agg:       s.cfg.Agg,
		MaxWeight: s.cfg.MaxWeight,
		Workers:   s.cfg.Workers,
		Sampled:   s.useSample(r, degraded),
	}
}

// recordStats files one expansion's BRS statistics: the latest snapshot
// and the session running totals.
func (s *Session) recordStats(stats brs.Stats) {
	stats.Add(s.unbooked)
	s.unbooked = brs.Stats{}
	s.LastStats = stats
	s.TotalStats.Add(stats)
}

// recordAuxStats files the reads of a refine or a traditional listing, with
// the work held unbooked for it — the pass that builds the distinct tuples,
// where it is the first to ask — to the session's totals, without
// overwriting LastStats, which by contract reflects the most recent
// *expansion*.
func (s *Session) recordAuxStats(stats brs.Stats) {
	stats.Add(s.unbooked)
	s.unbooked = brs.Stats{}
	s.TotalStats.Add(stats)
}

// coverage is the tuples an expansion searches, as coveredView resolved them.
type coverage struct {
	// view is what the search reads: the tuples row by row, or — where
	// groupable allows and they compress — grouped, each distinct tuple once
	// with its multiplicity for a mass.
	view  *table.View
	scale float64 // converts view aggregates to table estimates
	exact bool    // they need no scaling
}

// coveredView obtains the tuples covered by r, to be searched under w: a
// sample for large tables, otherwise the rule's exact coverage answered by an
// inverted index through the accounting store (no full scan, no materialized
// copy). Either is read as distinct tuples where groupable allows and the
// table's tuples repeat enough. An exact view reads the table's own memoised
// grouping (exactTable). A sample comes as the handler serves it, a form
// decided once per session (sampling.Handler.ServeGrouped): drawn from the
// table's distinct tuples and born grouped, or drawn from its rows and served
// as they are. The serve that builds a tuple sample's table — its first, or
// each of a Combine's — is booked the tuples it copied.
func (s *Session) coveredView(r rule.Rule, w weight.Weighter, degraded bool) (coverage, error) {
	if s.useSample(r, degraded) {
		v, err := s.handler.GetSample(r)
		if err != nil {
			return coverage{}, err
		}
		s.LastMethod = v.Method.String()
		if read := v.Read(); read > 0 {
			s.unbooked.Passes++
			s.unbooked.RowsScanned += int64(read)
			s.unbooked.SampledRowsScanned += int64(read)
		}
		return coverage{view: v.Tab, scale: v.Scale, exact: v.Scale == 1}, nil
	}
	s.LastMethod = "direct"
	return coverage{view: s.exactView(s.exactTable(w), r), scale: 1, exact: true}, nil
}

// exactView is r's coverage in t — the table or its distinct-tuple table.
func (s *Session) exactView(t *table.Table, r rule.Rule) *table.View {
	if r.IsTrivial() {
		return t.All()
	}
	return t.ViewOf(s.store.FilterRowsOf(t, r))
}

// groupable reports whether a search under w over rows tuples of the table
// may read them grouped instead. BRS's answer depends only on the multiset
// of tuples, so it can be searched over the distinct ones, each with its
// multiplicity for a mass (Section 6.3), when that search returns bit for
// bit what the rows would: under the Count aggregate — a Sum adds fractional
// masses, and its total depends on the order they are added in — and under
// weights that are integers small enough for every product and sum to be
// exact (weight.Integral). Everything else reads the rows, and so do tuples
// too varied for their grouping to be worth having, which only grouping them
// finds out.
func (s *Session) groupable(w weight.Weighter, rows int) bool {
	_, count := s.cfg.Agg.(score.CountAgg)
	return count && exactGrouped(w, s.tab.NumCols(), rows)
}

// exactGrouped reports whether a Count search under w over rows tuples of
// cols columns adds the same floats however the tuples are grouped: integer
// weights (weight.Integral), small enough for every product and sum to be
// exact.
func exactGrouped(w weight.Weighter, cols, rows int) bool {
	const exactInts = 1 << 53 // float64 holds every integer below it
	return weight.Integral(w) && w.MaxWeight(cols)*float64(rows) < exactInts
}

// exactTable picks what an exact expansion under w reads: the table's
// distinct-tuple table where groupable allows and the table compresses, its
// rows otherwise.
func (s *Session) exactTable(w weight.Weighter) *table.Table {
	if !s.groupable(w, s.tab.NumRows()) {
		return s.tab
	}
	if d := s.distinct(); d != nil {
		return d
	}
	return s.tab
}

// distinct returns the table's distinct-tuple table (table.Table.Distinct),
// or nil where it does not compress. The first expansion to ask, exact or
// sampled, builds it, and is booked the pass.
func (s *Session) distinct() *table.Table {
	var read table.Tally
	d := s.store.Distinct(&read)
	if read.Rows > 0 {
		s.unbooked.Passes++
		s.unbooked.Book(read.Rows, 0, 0)
	}
	return d
}

// useSample decides an expansion's access path: the sampled pipeline runs
// only when a handler exists and the (sub)view can exceed SampleThreshold
// rows — or unconditionally when the request is degraded, the overload
// ladder's cheap-answer rung. The decision reads catalog metadata and
// posting-list lengths — never rows — so routing itself costs nothing at
// interactive scale.
func (s *Session) useSample(r rule.Rule, degraded bool) bool {
	if s.handler == nil {
		return false
	}
	if degraded {
		return true
	}
	if s.cfg.SampleThreshold <= 0 {
		return true
	}
	return s.coverageUpperBound(r) > s.cfg.SampleThreshold
}

// coverageUpperBound cheaply upper-bounds Count(r): the shortest posting
// list among r's instantiated columns, the table size when r is trivial.
// Overestimating is safe — it keeps possibly-large views on the sampled
// path; the exact path is chosen only when the bound proves the view small.
func (s *Session) coverageUpperBound(r rule.Rule) int {
	bound := s.tab.NumRows()
	ix := s.tab.Index()
	for _, c := range r.InstantiatedColumns() {
		if l := ix.PostingsLen(c, r[c]); l < bound {
			bound = l
		}
	}
	return bound
}

// countCI returns the 95% display bounds for a child whose displayed
// (already scaled) aggregate is count, clamped to bound — the enclosing
// view's scaled size, so no child interval ever claims more mass than its
// parent holds. has reports whether the bounds are a genuine interval;
// exact counts and aggregates without interval support (Sum) get the
// degenerate bounds at the displayed value with has false, so a true
// [0, 0] interval is never confused with "no interval".
func countCI(agg score.Aggregator, exact bool, scale, count, bound float64) (lo, hi float64, has bool) {
	if _, isCount := agg.(score.CountAgg); !exact && isCount && scale > 0 {
		n := int(math.Round(count / scale)) // sample tuples the rule matched
		lo, hi = sampling.CountInterval(n, 1/scale, 1.96)
		lo, hi = sampling.ClampUpper(lo, hi, bound)
		return lo, hi, true
	}
	return count, count, false
}

// RefineNode upgrades a provisional (sample-estimated) node to its exact
// aggregate — the paper's background count refinement: provisional rules
// answer instantly from the sample, and the authoritative count arrives
// once the session has read the rule's exact view (exactRead): under Count
// its distinct tuples where the table has them, their multiplicities
// summed, otherwise its rows, in row order, the floats a full pass adds. It
// reports whether the node changed; exact nodes are left untouched, as are
// nodes that have left the displayed tree (a background refiner can lose a
// race with a collapse or re-expansion — reading an orphaned node's rows
// would be pure waste and would distort the store's accounting).
func (s *Session) RefineNode(n *Node) bool {
	if n.Exact || !s.displayed(n) {
		return false
	}
	v := s.exactRead(n.Rule)
	t, count := v.Table(), 0.0
	for i := 0; i < v.NumRows(); i++ {
		count += s.cfg.Agg.Mass(t, v.ParentRow(i))
	}
	n.Count = count
	n.CILow, n.CIHigh = count, count
	n.HasCI = false
	n.Exact = true
	s.rev++
	return true
}

// Traditional runs the classic OLAP drill-down listing on column c under
// n's rule over the rule's exact view (exactRead), which gives the groups a
// pass over the whole table does.
func (s *Session) Traditional(n *Node, c int) ([]baseline.Group, error) {
	if c < 0 || c >= s.tab.NumCols() {
		return nil, fmt.Errorf("drill: column %d out of range [0,%d)", c, s.tab.NumCols())
	}
	return baseline.TraditionalDrillDown(s.exactRead(n.Rule), n.Rule, c, s.cfg.Agg)
}

// exactRead returns r's exact view — what an exact drill of r under the
// session's weighter searches: the ascending rows the index finds, or the
// distinct tuples that hold them — and books one read of it to the
// session's totals.
func (s *Session) exactRead(r rule.Rule) *table.View {
	v := s.exactView(s.exactTable(s.cfg.Weighter), r)
	s.recordAuxStats(brs.Stats{Passes: 1, RowsScanned: int64(v.NumRows())})
	return v
}

// displayed reports whether n is still part of the session's displayed
// tree, which the id index holds exactly: adopt registers a node, Collapse
// and re-expansion forget it, and Load replaces the index — the pointer
// compare rejects a node from before the Load even where the snapshot
// reuses its id.
func (s *Session) displayed(n *Node) bool { return s.byID[n.id] == n }

// ProvisionalNodes lists displayed nodes whose counts are still sample
// estimates, in display (pre-order) order — the refiner's work queue.
func (s *Session) ProvisionalNodes() []*Node { return s.ProvisionalNodesIn(s.root) }

// ProvisionalNodesIn is ProvisionalNodes restricted to n's subtree.
func (s *Session) ProvisionalNodesIn(n *Node) []*Node {
	var out []*Node
	var walk func(m *Node)
	walk = func(m *Node) {
		if !m.Exact {
			out = append(out, m)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// prefetch rebuilds samples for the displayed tree's likely next
// drill-downs and upgrades displayed counts to exact values learned during
// the prefetching scan.
func (s *Session) prefetch() {
	troot := s.buildTree(s.root, nil)
	if s.cfg.ProbModel != nil {
		s.cfg.ProbModel.Assign(troot)
	} else {
		sampling.UniformLeafProbs(troot)
	}
	if _, err := s.handler.Prefetch(troot); err != nil {
		return // prefetching is best-effort; the next expand will Create
	}
	// Samples created by the prefetch carry exact coverage counts; reflect
	// them in the display (the paper's background count refinement).
	// ExactCount is a tuple count, so the upgrade is only valid under the
	// Count aggregate — under Sum it would overwrite a mass estimate with a
	// row tally and corrupt the displayed totals.
	if _, isCount := s.cfg.Agg.(score.CountAgg); !isCount {
		return
	}
	for _, smp := range s.handler.Samples() {
		if node := s.findNode(s.root, smp.Filter); node != nil && !node.Exact {
			node.Count = float64(smp.ExactCount)
			node.CILow, node.CIHigh = node.Count, node.Count
			node.HasCI = false
			node.Exact = true
			s.rev++
		}
	}
}

// observeDrill feeds the probability model the rank and depth of a drill.
func (s *Session) observeDrill(n *Node) {
	model, ok := s.cfg.ProbModel.(*sampling.RankModel)
	if !ok || n.parent == nil {
		return
	}
	rank := 0
	for i, c := range n.parent.Children {
		if c == n {
			rank = i
			break
		}
	}
	depth := 0
	for p := n; p.parent != nil; p = p.parent {
		depth++
	}
	model.Observe(rank, depth)
}

// buildTree mirrors the displayed tree into the sampling model's shape.
func (s *Session) buildTree(n *Node, parent *sampling.TreeNode) *sampling.TreeNode {
	tn := &sampling.TreeNode{Rule: n.Rule, Count: n.Count}
	if n == s.root {
		tn.Count = float64(s.tab.NumRows())
	}
	for _, c := range n.Children {
		tn.Children = append(tn.Children, s.buildTree(c, tn))
	}
	return tn
}

func (s *Session) findNode(n *Node, r rule.Rule) *Node {
	if n.Rule.Equal(r) {
		return n
	}
	for _, c := range n.Children {
		if found := s.findNode(c, r); found != nil {
			return found
		}
	}
	return nil
}

// probeSize is the number of tuples the mw probe samples (with replacement).
const probeSize = 2000

// probeFloor is the number of tuples a searched view must exceed for a drill
// to probe for mw: below it the probe costs more than the bounded search saves
// (docs/ARCHITECTURE.md, "The mw probe": on census × 14, 50 000 rows lose and
// 100 000 win). Not an option; a var only so that tests can lower it.
var probeFloor = 32 * probeSize

// EstimateMaxWeight implements the Section 6.1 heuristic for mw: run BRS on
// a small sample with an unbounded mw, observe the maximum selected weight
// x, and return 2x to absorb sampling error — or the weighter's bound, which
// is "no bound", where 2x reaches it. k must be the number of rules the
// caller will actually request — probing with a different k skews the
// estimate toward the weights of a differently-sized rule list.
func EstimateMaxWeight(v *table.View, w weight.Weighter, k int, seed int64) float64 {
	mw, _ := estimateMaxWeight(context.Background(), v, w, k, seed)
	return mw
}

// estimateMaxWeight is EstimateMaxWeight under the drill's own context, so
// the probe stops with the request it serves, returning beside the estimate
// what the probe read: its draw and its search's passes and reads, not its
// candidates. A canceled probe returns the weighter's bound; the search that
// follows reports ctx's error at its first check.
//
// A view no larger than the probe would be its own sample: the unbounded
// search would run once to choose mw and again, bounded, to re-pick the
// same rules. Such a view is searched once, at the weighter's bound.
//
// The probe asks one thing of its search — the heaviest weight among k
// greedy picks, doubled and capped at the bound — so it takes the picks as
// the search makes them and stops at the first that settles the answer: one
// weighing half the bound or more. Twice the heaviest then reaches the
// bound whatever the remaining picks weigh, and the bound is what any
// larger estimate is clamped to before a search reads it (brs.newRunner).
func estimateMaxWeight(ctx context.Context, v *table.View, w weight.Weighter, k int, seed int64) (float64, brs.Stats) {
	top := w.MaxWeight(v.NumCols())
	if v.NumRows() <= probeSize {
		return top, brs.Stats{}
	}
	probe, read := probeView(v, w, sampling.NewTestRNG(seed))
	maxW := 0.0
	searched, err := brs.RunIncrementalCtx(ctx, probe, w, brs.Options{K: k, MaxWeight: top}, k, time.Time{}, func(r brs.Result) bool {
		maxW = math.Max(maxW, r.Weight)
		return 2*maxW < top
	})
	read.Add(brs.Stats{Passes: searched.Passes, RowsScanned: searched.RowsScanned,
		PostingsRead: searched.PostingsRead, BitmapWordsRead: searched.BitmapWordsRead})
	if err != nil || maxW == 0 || 2*maxW >= top {
		return top, read
	}
	return 2 * maxW, read
}

// probeView draws the probe's probeSize tuples from v uniformly with
// replacement and hands them to the search under w tallied: each drawn tuple
// once, in tuple order like every grouped table, standing for the number of
// times it was —
// a weighted table, which the search reads as it is, where the draws laid
// out row by row, a view, would be copied row by row first and searched
// without multiplicities. From a view of rows the drawn rows
// are grouped (Table.GroupRows, the one grouping routine). From a view of
// distinct tuples with multiplicities — the table's, or a sample's — a tuple
// is drawn with probability proportional to its multiplicity, which is
// drawing among the rows it stands for, and the draws are tallied by view
// position and copied out in ascending position — tuple order, since a
// weighted table is in it and the views a search reads are ascending. The
// search's answer is bit for bit the rows' wherever exactGrouped
// holds; elsewhere — fractional weights — the probe keeps the view of the
// drawn rows, which the search copies. read is the pass that built the
// tally.
func probeView(v *table.View, w weight.Weighter, rng *rand.Rand) (probe *table.View, read brs.Stats) {
	t := v.Table()
	var tally *table.Table
	if !t.Weighted() {
		rows := make([]int, probeSize) // view positions, then the table rows at them
		for i := range rows {
			rows[i] = rng.Intn(v.NumRows())
		}
		if !exactGrouped(w, v.NumCols(), probeSize) {
			return v.Subset(rows), read
		}
		for i, pos := range rows {
			rows[i] = v.ParentRow(pos)
		}
		tally = t.GroupRows(&read, rows, probeSize)
	} else {
		// cum[i] is the number of tuples standing before view position i.
		cum := make([]int, v.NumRows()+1)
		for i := 0; i < v.NumRows(); i++ {
			cum[i+1] = cum[i] + t.Multiplicity(v.ParentRow(i))
		}
		drawn := make(map[int]int32, probeSize) // view position → times drawn
		for n := 0; n < probeSize; n++ {
			u := rng.Intn(cum[len(cum)-1])
			drawn[sort.Search(v.NumRows(), func(i int) bool { return cum[i+1] > u })]++
		}
		positions := slices.Sorted(maps.Keys(drawn))
		rows, times := make([]int, len(positions)), make([]int32, len(positions))
		for k, i := range positions {
			rows[k], times[k] = v.ParentRow(i), drawn[i]
		}
		tally = t.SelectWeighted(&read, rows, times)
	}
	read.Passes = 1
	return tally.All(), read
}
