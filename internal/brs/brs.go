// Package brs implements BRS (Best Rule Set), the paper's greedy algorithm
// for Problem 3 (Section 3.4), together with the a-priori-style
// find-best-marginal-rule procedure of Section 3.5 (Algorithm 2).
//
// Score is submodular (Lemma 3), so greedily adding the rule with the
// largest marginal value k times yields a (1 − 1/e)-approximation — in fact
// 1 − ((k−1)/k)^k — provided the max-weight parameter mw is at least the
// weight of every rule in the optimal set. Each greedy step finds the best
// marginal rule in level-wise passes over the table, pruning candidate
// super-rules whose marginal value is upper-bounded below the best already
// found. Level 0 is the base alone and level k+1 the extensions of level
// k's survivors, so level 1 is the base's expansion, made like any other.
// The greedy yields each rule as it selects it (RunIncremental, the §6.1
// anytime stream); a batch search (Run) is that stream stopped at K and
// sorted into display order, every value as the stream yielded it.
//
// Three hot-path optimizations sit on top of the textbook algorithm, all
// result-preserving:
//
//   - One candidate identity: a candidate is deduplicated, looked up and —
//     where a tie has to be broken — ordered by its rule's Key() bytes, built
//     once when the candidate is created. Lookups of a child or a sub-rule
//     write that neighbour's key into one scratch buffer and probe the
//     store with it, so only a candidate the store has never seen
//     allocates.
//
//   - Cross-step reuse with lazy marginals: candidate aggregate masses are
//     invariant across the K greedy steps, and because Score is submodular
//     a marginal measured in an earlier step is an upper bound on today's.
//     Counted candidates (and each candidate's generated super-rule set)
//     live on the runner; a selection only raises topW over its own
//     coverage, and the next step opens by re-measuring cached candidates.
//     Where sums are exact (Count under integral weights and mw) it first
//     derives them with no read: a candidate's marginal and residual bound
//     are fixed by its own count and the counts of the rules it merges
//     into with each set of compatible selections, by inclusion–exclusion,
//     and those merged rules are usually in the store already (counting
//     inference, Bastide et al., SIGKDD Explorations 2000). What it cannot
//     derive it walks, in descending order of the stale marginal, until
//     the best fresh one matches or beats every stale one left (lazy
//     greedy evaluation, Minoux 1978). The rest stay stale: they cannot
//     win the step, and serve as parents and as looser, still sound,
//     sub-rule bounds.
//
//   - Index-driven counting: every expansion, count, refresh and topW
//     raise walks a candidate's coverage as an intersection of the
//     table's index containers, by the kernel a per-candidate cost model
//     picks. The base's expansion and step 1's expansion of level 1 are
//     the exceptions: under Count the base's is the index's posting
//     lengths, or the masses beside them on a weighted table, and level
//     1's the index's pair masses where the table keeps them; under Sum
//     the base's is one pass over the rows. A search reads a whole
//     table and its index: any other view is copied into one before the
//     search starts. The walk that discovers a parent's extensions also
//     counts them, so a candidate that survives pruning in the step its
//     parent was expanded in is never intersected on its own; and a walk
//     keeps the rows it visits as its candidate's cover, so a later count
//     or walk of that candidate reads that cover alone, and one of a child
//     holding no cover intersects two containers, the parent's cover and
//     the child's added column, however deep the child is. Siblings that
//     an expansion pass walks — children of one parent, that share its
//     coverage — are routed where that reads less: one walk of the
//     parent's coverage reads each row's value in the column each child
//     adds and books the row to the child that holds it, as Algorithm 2
//     counts a rule's extensions from the tuples it covers.
//
// Because counting is fused into generation, the bound is tested before
// the walk: a counted rule whose own bound MV + Count·(mw − W) is below the
// step's threshold H is not expanded — every super-rule its walk would
// find would be pruned by that very number — and waits, unexpanded, for
// the first later step whose H falls to its bound. Only walks are gated.
// The merge of already-expanded parents' cached children is not: a cached
// child can hold the step's maximum while its parent's bound, the same sum
// taken in another order, is one ulp smaller.
//
// The tests hold all of it bit-identical, wherever sums are exact, to
// package brsref: Algorithms 1–2 as the paper writes them, test-only code
// that shares nothing with the runner — no candidate store, cover, plan,
// index kernel, worker or cache.
package brs

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Options configures a BRS run.
type Options struct {
	// K is the number of rules to return (the paper's k; its UI default is 3,
	// the experiments use 4).
	K int
	// MaxWeight is the paper's mw parameter: BRS is guaranteed optimal (up
	// to the greedy factor) if no optimal rule weighs more than mw, and runs
	// faster for smaller values. Zero means "no bound" (mw = W of the full
	// column set), trading speed for the guarantee.
	MaxWeight float64
	// Base restricts the search to super-rules of this rule, implementing
	// rule drill-down after the view has been restricted to Base's coverage.
	// Nil means the trivial rule.
	Base rule.Rule
	// BaseCovered asserts every row of the view already covers Base, so the
	// run tests none of them. The drill layer sets it: rule filters
	// (index-backed) and samples both deliver exactly Base's coverage. When
	// false and Base is non-trivial, the run restricts the view itself, in
	// the one accounted pass that copies it into the table it searches.
	BaseCovered bool
	// Agg is the aggregated mass; nil means Count. Sum over a measure column
	// implements the Section 6.3 extension.
	Agg score.Aggregator
	// SampleScale declares the view a uniform sample of a larger (sub)table
	// and scales every emitted Count/MCount by this factor, so results are
	// table-level estimates instead of sample-local masses (Section 4: BRS
	// over a sample, displayed counts scaled by Ns). Rule selection is
	// unaffected — a uniform scale preserves every marginal-value
	// comparison — but Stats.SampledRowsScanned records the sample rows the
	// search read. 0 or 1 means the view is exact.
	SampleScale float64
	// Workers sets the number of goroutines a pass fans out to. 0 (the
	// default) saturates the hardware, runtime.NumCPU() workers; 1 runs
	// serially. A worker takes whole candidates (an index pass) or whole
	// columns (Sum's level-1 row pass), never a share of one sum, so every
	// accumulator sums its rows in row order and results — Count or Sum,
	// fractional masses included — and Stats are bit-identical at any
	// worker count.
	Workers int
	// MinGainRatio (used by RunIncremental only) stops the stream once a
	// rule's marginal value at selection — its Weight·MCount, up to the
	// sample scale — drops below this fraction of the first rule's: the
	// anytime mode's guard against flooding the display with near-worthless
	// rules. 0 disables the cutoff.
	MinGainRatio float64
}

// DefaultMaxCandidates caps the candidates a level past the first may
// create, as a memory safety valve. When the cap is hit the result may be
// suboptimal; Stats.CandidateCapHit records it.
const DefaultMaxCandidates = 1 << 20

// maxCandidates is the cap a run applies: DefaultMaxCandidates, a variable
// only so that a test can trip it on a small table.
var maxCandidates = DefaultMaxCandidates

// Result is one selected rule with its display statistics.
type Result struct {
	Rule   rule.Rule
	Weight float64
	// Count is the aggregate mass of all tuples covered by Rule in the
	// table BRS ran on (the value shown to the analyst).
	Count float64
	// MCount is the marginal mass at selection: the marginal value of the
	// greedy step that selected Rule — Σ (Weight − W(TOP(t)))·mass over the
	// tuples t it covers that no rule selected before it as heavy covers —
	// divided by Weight (the value itself for a weightless rule), times the
	// sample scale. Weight·MCount is the Score the selection added, so
	// MCount is at most Count (up to rounding) and equal to it for the
	// first rule selected. Run and RunIncremental carry the same value for
	// the same rule.
	MCount float64
}

// Stats instruments a run for the performance experiments (Figure 5).
//
// CandidatesPruned counts rules generated and then dropped by the
// upper-bound test. Super-rules of a parent whose own bound is already below
// the threshold are never generated — generateCandidates tests the bound
// before the walk — and are not counted: a smaller number means fewer
// coverage walks, not weaker pruning.
type Stats struct {
	Passes            int   `json:"passes"`             // row passes: a sub-view's copy, and Sum's level 1
	CandidatesCounted int   `json:"candidates_counted"` // rules whose aggregate mass was measured
	CandidatesPruned  int   `json:"candidates_pruned"`  // rules generated, then dropped by the upper-bound test
	CandidatesReused  int   `json:"candidates_reused"`  // counted rules served from the cross-step cache: left stale, or derived from stored counts
	RowsScanned       int64 `json:"rows_scanned"`       // total row visits by row passes
	PostingsRead      int64 `json:"postings_read"`      // posting entries read by index-driven counting
	BitmapWordsRead   int64 `json:"bitmap_words_read"`  // packed bitset words read by the bitmap kernel
	IndexLevels       int   `json:"index_levels"`       // counting/generation/maintenance steps answered from the index
	CandidateCapHit   bool  `json:"candidate_cap_hit"`  // a level hit DefaultMaxCandidates
	// CellsBooked counts (row, accumulator) updates, the CPU the read
	// counters do not see: one a covered row and extension column of an
	// expansion walk, and one a covered row of a counting walk or refresh;
	// a topW raise, a derivation from stored counts and the reads of a
	// row's values that route it to its siblings (see route) book none.
	// Each pass books its own, and each walk owns whole candidates, so the
	// count is the same at any worker count. It stays in process: the
	// wire's search block has no field for it.
	CellsBooked int64 `json:"-"`
	// RoutedReads, KeeperAdds and StoreProbes count more of that CPU, and
	// stay in process too: the cells route reads to hand a row to the
	// sibling holding its value, booked a block at a time; the rows walks
	// add to the keepers that become covers, booked a cover at a time; and
	// the candidate store's lookups (runner.find), which run serially.
	// Each is the same at any worker count.
	RoutedReads int64 `json:"-"`
	KeeperAdds  int64 `json:"-"`
	StoreProbes int64 `json:"-"`
	// SampledRowsScanned is the portion of RowsScanned read from a uniform
	// sample rather than the authoritative table (runs with SampleScale
	// set). Sessions accumulate it so the approximate pipeline's in-memory
	// reads stay visible next to real table I/O.
	SampledRowsScanned int64 `json:"sampled_rows_scanned"`
	// CacheHits, CacheMisses and SingleflightWaits are filed by the search
	// service's answer cache, not by BRS itself: a cache-hit expansion has
	// zero passes and zero rows scanned, and these counters are how that
	// absence stays visible (CacheMisses counts actual BRS executions;
	// SingleflightWaits counts requests served by adopting a concurrent
	// identical run). They ride in Stats so one struct flows through
	// sessions, the store, and the wire unchanged.
	CacheHits         int `json:"cache_hits"`
	CacheMisses       int `json:"cache_misses"`
	SingleflightWaits int `json:"singleflight_waits"`
}

// Book makes Stats the table kernels' meter (table.Meter): rows into
// RowsScanned, posting entries into PostingsRead and bitset words into
// BitmapWordsRead.
func (s *Stats) Book(rows, entries, words int64) {
	s.RowsScanned += rows
	s.PostingsRead += entries
	s.BitmapWordsRead += words
}

// Add accumulates o into s (CandidateCapHit ORs). Sessions use it to keep
// running totals across repeated expansions.
func (s *Stats) Add(o Stats) {
	s.Passes += o.Passes
	s.CandidatesCounted += o.CandidatesCounted
	s.CandidatesPruned += o.CandidatesPruned
	s.CandidatesReused += o.CandidatesReused
	s.RowsScanned += o.RowsScanned
	s.PostingsRead += o.PostingsRead
	s.BitmapWordsRead += o.BitmapWordsRead
	s.IndexLevels += o.IndexLevels
	s.CellsBooked += o.CellsBooked
	s.RoutedReads += o.RoutedReads
	s.KeeperAdds += o.KeeperAdds
	s.StoreProbes += o.StoreProbes
	s.CandidateCapHit = s.CandidateCapHit || o.CandidateCapHit
	s.SampledRowsScanned += o.SampledRowsScanned
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.SingleflightWaits += o.SingleflightWaits
}

// Run executes BRS on the view v and returns up to opts.K rules — the
// greedy's first K selections, RunIncremental's stream stopped at K —
// ordered by descending weight, a tie by rule key (the display order
// mandated by Lemma 1), together with run statistics. Each Result carries
// the values the stream yields for it: Count, and MCount at selection. It
// returns fewer than K rules when no remaining rule has positive marginal
// value. Counts are masses over v's rows; pass the full-table view
// (Table.All) for whole-table searches. Any other view becomes a table of
// its own (View.Select): a slice of its table where its rows are one run of
// it, which reads nothing, else a copy made in one pass booked to the run's
// Stats. The search reads a whole table and its index.
func Run(v *table.View, w weight.Weighter, opts Options) ([]Result, Stats, error) {
	return RunCtx(context.Background(), v, w, opts)
}

// RunCtx is Run under a cancellation context: the greedy search checks ctx
// between counting passes and inside them — every candidate of an index
// pass, every pollStride rows of the row pass — and aborts with ctx's
// error (and the statistics of the work already done) when it fires, so an
// abandoned interactive request stops paying for table reads within a
// stride.
func RunCtx(ctx context.Context, v *table.View, w weight.Weighter, opts Options) ([]Result, Stats, error) {
	if opts.K <= 0 {
		return nil, Stats{}, fmt.Errorf("brs: K must be positive, got %d", opts.K)
	}
	run, err := newRunner(v, w, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	run.ctx = ctx
	// A batch run is the stream that stops at K (Section 6.1): no deadline,
	// no gain cutoff, every rule kept.
	var selected []Result
	if err := run.greedy(opts.K, time.Time{}, 0, func(r Result) bool {
		selected = append(selected, r)
		return true
	}); err != nil {
		return nil, run.finalStats(), err
	}
	displayOrder(selected)
	return selected, run.finalStats(), nil
}

// greedy is the one greedy driver (Algorithm 1): find the best marginal
// rule, commit it, hand it to yield in selection order, and repeat until
// yield returns false, maxRules rules are out (0 = unbounded), the optional
// deadline passes, no rule adds positive marginal value, or — when
// minGainRatio is positive — a rule's marginal value falls below that
// fraction of the first rule's. The yielded MCount is the marginal mass at
// selection (see Result): the step's marginal value Σ (W − topW)·mass over
// the weight. It returns the context's error when that is what stopped it.
func (rn *runner) greedy(maxRules int, deadline time.Time, minGainRatio float64, yield Yield) error {
	firstGain := 0.0
	for step := 0; maxRules <= 0 || step < maxRules; step++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) { //sdlint:allow nondeterminism anytime deadline: the clock decides when to stop emitting rules, never which rule is emitted or its count
			break
		}
		best := rn.findBestMarginal()
		if rn.ctxErr != nil {
			return rn.ctxErr
		}
		if best == nil || best.marginal <= 0 {
			break
		}
		gain := best.marginal // applySelection zeroes it
		if step == 0 {
			firstGain = gain
		} else if minGainRatio > 0 && gain < minGainRatio*firstGain {
			break // diminishing returns: stop flooding the display
		}
		rn.applySelection(best)
		mcount := gain
		if best.weight > 0 {
			mcount = gain / best.weight
		}
		if !yield(Result{
			Rule:   best.r,
			Weight: best.weight,
			Count:  best.count * rn.scale,
			MCount: mcount * rn.scale,
		}) {
			break
		}
	}
	return nil
}

// TableOf returns the table a search of v reads — v's restricted to r's
// coverage unless r is trivial — as View.Select makes it, and what making
// it cost: a copy is one pass, booked the rows it read; v's own table, or
// a slice of it, reads no row and is no pass.
func TableOf(v *table.View, r rule.Rule) (*table.Table, Stats) {
	var read table.Tally
	tab := v.Select(&read, r)
	var made Stats
	if read.Rows > 0 {
		made.Passes = 1
		made.Book(read.Rows, 0, 0)
	}
	return tab, made
}

// newRunner normalizes options and resolves the table the run searches: v's
// own where v spans it whole and needs no restriction, a slice of it where
// v's rows are one run of it and need none, else a copy of v's rows —
// restricted to Base's coverage when the caller has not already done so —
// made in one pass (View.Select). Shared by Run and RunIncremental.
func newRunner(v *table.View, w weight.Weighter, opts Options) (*runner, error) {
	base := opts.Base
	if base == nil {
		base = rule.Trivial(v.NumCols())
	}
	if len(base) != v.NumCols() {
		return nil, errBaseArity(len(base), v.NumCols())
	}
	agg := opts.Agg
	if agg == nil {
		agg = score.CountAgg{}
	}
	// No rule outweighs the weighter's own bound, so a larger mw (the §6.1
	// estimate doubles its probe) says "no bound" too; clamping it keeps the
	// slack mw − W out of every a-priori bound.
	mw := opts.MaxWeight
	if top := w.MaxWeight(v.NumCols()); mw <= 0 || mw > top {
		mw = top
	}
	scale := opts.SampleScale
	if scale <= 0 {
		scale = 1
	}
	var restrict rule.Rule
	if !opts.BaseCovered {
		restrict = base
	}
	run := &runner{
		w: w, agg: agg, mw: mw, base: base,
		par: opts.Workers, scale: scale,
		coverLeft: coverBudget,
	}
	// A copy's index, and a slice's, is built by its first read and booked
	// nowhere, like a tuple sample's.
	tab, made := TableOf(v, restrict)
	run.stats.Add(made)
	run.tab, run.ix = tab, tab.Index()
	run.baseMask = base.Mask()
	run.freeCols = run.freeColumns()
	_, run.countAgg = agg.(score.CountAgg)
	run.unitMass = run.countAgg && !tab.Weighted()
	run.exactSums = score.ExactSums(agg, w, mw, float64(tab.NumTuples()))
	run.store = newCandStore()
	run.root = &cand{r: base, mask: run.baseMask}
	return run, nil
}

// displayOrder sorts rs into display order (Lemma 1): weight descending, a
// tie by rule key, each key built once.
func displayOrder(rs []Result) {
	type keyed struct {
		key string
		r   Result
	}
	ks := make([]keyed, len(rs))
	for i, r := range rs {
		ks[i] = keyed{r.Rule.Key(), r}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.r.Weight, a.r.Weight), strings.Compare(a.key, b.key))
	})
	for i := range ks {
		rs[i] = ks[i].r
	}
}

// runner holds per-Run state shared by greedy steps. All passes iterate
// rn.tab, whose every row covers rn.base, so per-row base checks are gone
// from the inner loops; coverage tests against candidates touch only the
// base's free columns.
//
// The cross-step caches live here: topW (weight of the best selected rule
// covering each row, raised by raiseTopW), the candidate store (every
// candidate materialized this run, with its mass and the marginal it had in
// the step that last measured it), and root, level 0: the base, never
// registered or counted, whose children — its expansion, made in step 1 —
// are level 1.
type runner struct {
	tab      *table.Table // the table searched: the view's, or a copy of its rows
	ix       *table.Index // tab's inverted index, built by its first read
	w        weight.Weighter
	agg      score.Aggregator
	countAgg bool // agg is the plain Count aggregate
	unitMass bool // Count over an unweighted table: every row's mass is 1, a count of rows is a sum of masses
	mw       float64
	base     rule.Rule
	baseMask rule.Mask
	freeCols []int // columns the base leaves starred
	par      int
	scale    float64 // SampleScale normalized: emitted masses multiply by it

	// exactSums: every mass, marginal and bound is an integer below 2^53,
	// the same float in any order (score.ExactSums over tab's tuples) —
	// where deriveStale may run.
	exactSums bool

	topW     []float64 // W(TOP(t, selection[:raised])) per row; nil until the first raise
	claimed  float64   // the heaviest weight topW holds, see tracksResidual
	selected []*cand
	raised   int // selections topW already reflects, see raiseTopW
	store    candStore
	root     *cand // level 0: the base's rule and mask, and level 1 as its children
	gen      int   // generation-merge epoch, see generateCandidates
	stats    Stats

	// deriveStale's scratch: the selection heaviest first, the terms
	// compatible with the candidate being derived, the merged rule whose
	// count is looked up, and the columns overlap set in it.
	terms  []selTerm
	compat []selTerm
	merged rule.Rule
	undo   []int

	coverLeft int64                       // what is left of the run's cover budget, see coverBudget
	keepers   [][maxSiblings]table.Keeper // expansion pass workers' keepers, see expandParents

	// ctx cancels the search between and inside counting passes; ctxErr
	// latches the context's error once observed so every later check is a
	// field read. Workers poll ctx but never write ctxErr: their pass
	// latches what they saw after they return.
	ctx    context.Context
	ctxErr error
}

// canceled reports (and latches) whether the run's context has fired. The
// greedy loops consult it at pass boundaries, and a pass its workers cut
// short latches the error before it returns. A cut pass leaves counts and
// covers half done, so a runner whose context fired is discarded: greedy
// returns the error and never yields the rule of a step that saw it.
func (rn *runner) canceled() bool {
	if rn.ctxErr == nil {
		rn.ctxErr = rn.fired()
	}
	return rn.ctxErr != nil
}

// canceledAt is canceled for item i of a serial loop between passes over
// many candidates — materializing a walk's extensions, bounding a level's —
// polled only before every pollStride-th item, so that such a loop stops
// within a stride and still costs no poll an item.
func (rn *runner) canceledAt(i int) bool {
	return i > 0 && i%pollStride == 0 && rn.canceled()
}

// fired polls the run's context without latching, so any worker may call
// it.
func (rn *runner) fired() error {
	if rn.ctx == nil {
		return nil
	}
	return rn.ctx.Err()
}

// cand is one candidate rule with accumulated statistics and cross-step
// cache state. Its identity is key, r's Key(), at any width.
type cand struct {
	r      rule.Rule
	key    string    // r.Key(): the store's map key and the tie-break order
	mask   rule.Mask // full instantiated-column mask (base included)
	weight float64

	count    float64 // aggregate mass covered (step-invariant)
	marginal float64 // marginal value against the selection of step asOf
	resid    float64 // R, the residual bound (see subRuleBound); +Inf until a step past the first measures it
	asOf     int     // greedy step that measured count and marginal; 0 = never
	counted  bool    // survived pruning in some step: a bound source and a parent
	expanded bool    // walked: children holds every supported one-column extension
	children []*cand
	lastGen  int // epoch marker deduplicating the cross-parent child merge

	// from is the parent whose walk first created the candidate (nil at
	// level 1): its cover, where held, ANDed with the container of the one
	// column the candidate adds is the candidate's coverage.
	from  *cand
	cover *table.Set // the rows the candidate's own index walk visited; nil unless the run kept them
}

// candLess is the order that breaks a tie within a level (findBestMarginal):
// Rule.Key() byte order.
func candLess(a, b *cand) bool { return a.key < b.key }

// candStore is the run-wide candidate registry (C in Algorithm 2, hoisted
// out of the per-step procedure so steps 2..K reuse step 1's counting
// work). counted lists counted candidates in counting order — level by
// level, each level in merge order — for the next step's refresh to rank.
type candStore struct {
	byKey   map[string]*cand
	counted []*cand
	scratch []byte // the key find probed with; childOf and upperBound run serially
}

func newCandStore() candStore {
	return candStore{byKey: make(map[string]*cand)}
}

// find returns the candidate r.With(c, v) (r itself when c < 0), nil when
// the store has none, and leaves that rule's key in scratch. The probe
// allocates nothing.
func (cs *candStore) find(r rule.Rule, c int, v rule.Value) *cand {
	cs.scratch = r.AppendKeyWith(cs.scratch[:0], c, v)
	return cs.byKey[string(cs.scratch)]
}

// find is the store's find, booked to Stats.StoreProbes.
func (rn *runner) find(r rule.Rule, c int, v rule.Value) *cand {
	rn.stats.StoreProbes++
	return rn.store.find(r, c, v)
}

// step numbers the greedy step in progress from 1; a candidate whose asOf
// equals it carries a marginal against the current selection.
func (rn *runner) step() int { return len(rn.selected) + 1 }

// markCounted flags c as counted in this step and appends it to the
// counted order.
func (rn *runner) markCounted(c *cand) {
	c.counted = true
	c.asOf = rn.step()
	rn.store.counted = append(rn.store.counted, c)
	rn.stats.CandidatesCounted++
}

// findBestMarginal implements Algorithm 2: level-wise candidate counting
// with sub-rule upper-bound pruning against threshold H. Candidates counted
// in earlier greedy steps are served from the runner's store: their counts
// are invariant and their marginals are upper bounds on today's, so the
// step first re-measures them — from stored counts where it can
// (deriveStale), else by walking the few that could still win
// (refreshStale) — starts H there, and only genuinely new candidates touch
// the data.
func (rn *runner) findBestMarginal() *cand {
	if rn.tab.NumRows() == 0 || len(rn.freeCols) == 0 || rn.canceled() {
		return nil
	}
	rn.raiseTopW()
	rn.deriveStale()
	H := rn.refreshStale()
	if rn.canceled() {
		return nil
	}
	step := rn.step()

	// The winner is the candidate holding the step's maximum marginal. A tie
	// goes to the earlier level; within level 1 to the earlier in its list
	// (column, then value id, as the base's expansion lists them); within a
	// deeper level — merged, not sorted, so its list order only says which
	// parent reached a rule first — to the smaller key (candLess). Stale
	// candidates never win (refreshStale re-measured every one that could);
	// they ride along as survivors.
	var best *cand
	bestLevel := 0
	consider := func(c *cand, level int) {
		if c.asOf != step {
			rn.stats.CandidatesReused++
			return
		}
		switch {
		case best == nil || c.marginal > best.marginal:
		case level >= 2 && level == bestLevel && c.marginal == best.marginal && candLess(c, best):
		default:
			return
		}
		best, bestLevel = c, level
		if c.marginal > H {
			H = c.marginal
		}
	}

	// Level by level from level 0, the base alone: generate super-rules of
	// the previous level's candidates whose own bound reaches H, prune
	// uncounted ones by upper bound, count the survivors. Level 1, every
	// single-extension rule base+(c,v), is the base's expansion in step 1
	// (the index's masses, or under Sum one row pass), reused by later
	// steps; its rules have no counted sub-rule, so none is pruned.
	prev := []*cand{rn.root}
	for level := 1; level <= len(rn.freeCols); level++ {
		if rn.canceled() {
			return nil
		}
		next := rn.generateCandidates(prev, H)
		if len(next) == 0 {
			break
		}
		survivors := next[:0]
		var toCount []*cand
		for i, c := range next {
			if rn.canceledAt(i) {
				return nil
			}
			if c.counted {
				// Cached from an earlier step: a parent and a bound source
				// whatever its marginal, no bound test needed.
				survivors = append(survivors, c)
				continue
			}
			if rn.upperBound(c) < H {
				rn.stats.CandidatesPruned++
				continue
			}
			survivors = append(survivors, c)
			if c.asOf != step {
				// Not measured by a parent's expansion walk in this step: a
				// late survivor, measured and pruned by earlier steps' walks,
				// admitted now that H is lower with every parent already
				// expanded — rare, since a parent gated then is walked now.
				toCount = append(toCount, c)
			}
			rn.markCounted(c)
		}
		if len(survivors) == 0 {
			break
		}
		if len(toCount) > 0 {
			rn.countCandidates(toCount, rn.planIndex(toCount))
		}
		for _, c := range survivors {
			consider(c, level)
		}
		prev = survivors
	}
	return best
}

// applySelection commits best as the step's selected rule. Nothing is walked
// here: the topW raise waits for the next step's raiseTopW, so the last
// selection of a run — which no later step reads — costs nothing, and every
// cached marginal simply turns stale.
func (rn *runner) applySelection(best *cand) {
	rn.selected = append(rn.selected, best)
	// From the raise on topW is at least best.weight over all of best's
	// coverage, for the rest of the run.
	best.marginal = 0
}

// raiseTopW lifts topW to each not yet applied selection's weight over
// that rule's coverage, one walk of it.
func (rn *runner) raiseTopW() {
	for ; rn.raised < len(rn.selected) && rn.ctxErr == nil; rn.raised++ {
		if rn.topW == nil {
			rn.topW = make([]float64, rn.tab.NumRows())
		}
		topW, sel := rn.topW, rn.selected[rn.raised]
		rn.claimed = max(rn.claimed, sel.weight)
		rn.walk(sel, rn.planCand(sel), &rn.stats, func(row int) {
			topW[row] = max(topW[row], sel.weight)
		})
		rn.stats.IndexLevels++
	}
}

// deriveCap is the most selections compatible with a stale candidate that
// derive resolves: inclusion–exclusion over them looks up to 2^deriveCap − 1
// intersections, and a candidate past the cap is walked instead.
const deriveCap = 6

// selTerm is a selection as derive reads it: its candidate and the free
// columns its rule instantiates.
type selTerm struct {
	c    *cand
	cols []int
}

// deriveStale opens steps 2..K where sums are exact (exactSums) by
// re-measuring stale counted candidates from counts the run already holds,
// with no read (derive). A derived candidate is fresh: refreshStale ranks
// only the rest, and its opening threshold includes the derived marginals.
// Each derivation is booked as a candidate served from the cross-step
// cache.
func (rn *runner) deriveStale() {
	if !rn.exactSums || len(rn.selected) == 0 || rn.ctxErr != nil {
		return
	}
	for _, s := range rn.selected[len(rn.terms):] {
		t := selTerm{c: s}
		for _, col := range rn.freeCols {
			if s.r[col] != rule.Star {
				t.cols = append(t.cols, col)
			}
		}
		rn.terms = append(rn.terms, t)
	}
	// Heaviest first; among equal weights any order gives the same sums.
	slices.SortStableFunc(rn.terms, func(a, b selTerm) int { return cmp.Compare(b.c.weight, a.c.weight) })
	if rn.merged == nil {
		rn.merged = slices.Clone(rn.base)
	}
	step := rn.step()
	for i, c := range rn.store.counted {
		if rn.canceledAt(i) {
			return
		}
		if c.asOf != step && rn.derive(c) {
			c.asOf = step
			rn.stats.CandidatesReused++
		}
	}
}

// derive re-measures c against the selection so far from stored counts,
// and reports whether it could. Let S_1..S_n be the selections compatible
// with c, heaviest first, and U_j = Count(c ∧ (S_1 ∪ … ∪ S_j)). The mass
// U_j − U_{j−1} is what topW holds at S_j's weight, and Count(c) − U_n what
// no selection covers, so
//
//	marginal = Σ_j (W(c) − W(S_j))⁺·(U_j − U_{j−1}) + W(c)·(Count(c) − U_n)
//	R        = mw·Count(c) − Σ_j W(S_j)·(U_j − U_{j−1}),
//
// each difference a signed sum of the counts of merged rules (overlap).
// Every term is an integer below 2^53, so the floats are those a walk
// summing the rows in order gives. c is left as it was when more than
// deriveCap selections are compatible with it or a merged rule's count is
// not in the store.
func (rn *runner) derive(c *cand) bool {
	rn.compat = rn.compat[:0]
	for _, t := range rn.terms {
		if t.fits(c.r) {
			if len(rn.compat) == deriveCap {
				return false
			}
			rn.compat = append(rn.compat, t)
		}
	}
	copy(rn.merged, c.r)
	marginal, claimed, covered := 0.0, 0.0, 0.0
	for j, t := range rn.compat {
		gained, ok := rn.overlap(c, t, rn.compat[:j], 1)
		if !ok {
			return false
		}
		if c.weight > t.c.weight {
			marginal += (c.weight - t.c.weight) * gained
		}
		claimed += t.c.weight * gained
		covered += gained
	}
	c.marginal = marginal + c.weight*(c.count-covered)
	c.resid = rn.mw*c.count - claimed
	return true
}

// fits reports whether rule r and selection t agree on every free column
// both instantiate — whether the two can cover a row in common.
func (t selTerm) fits(r rule.Rule) bool {
	for _, col := range t.cols {
		if v := r[col]; v != rule.Star && v != t.c.r[col] {
			return false
		}
	}
	return true
}

// overlap returns sign·Σ over T ⊆ earlier of (−1)^|T|·Count(merged ∧ t ∧
// S_T), merged the rule rn.merged holds — c with the selections of the
// caller's subset — and ok false where a count it needs is not stored. At
// the top, merged = c, sign = 1 and earlier the heavier selections, it is
// the mass of c that t covers and no heavier selection does. A merged rule
// whose columns disagree covers nothing, nor does any of its super-rules;
// one that adds no column to c is c; any other is looked up by key in the
// store's scratch buffer, allocating nothing. rn.merged is restored before
// it returns.
func (rn *runner) overlap(c *cand, t selTerm, earlier []selTerm, sign float64) (float64, bool) {
	mark := len(rn.undo)
	defer rn.unmerge(mark)
	for _, col := range t.cols {
		switch v, have := t.c.r[col], rn.merged[col]; have {
		case v:
		case rule.Star:
			rn.merged[col] = v
			rn.undo = append(rn.undo, col)
		default:
			return 0, true
		}
	}
	n := c.count
	if len(rn.undo) > 0 {
		m := rn.find(rn.merged, -1, rule.Star)
		if m == nil {
			return 0, false
		}
		n = m.count
	}
	sum := sign * n
	for i, e := range earlier {
		part, ok := rn.overlap(c, e, earlier[:i], -sign)
		if !ok {
			return 0, false
		}
		sum += part
	}
	return sum, true
}

// unmerge stars again the columns overlap set in rn.merged past mark.
func (rn *runner) unmerge(mark int) {
	for _, col := range rn.undo[mark:] {
		rn.merged[col] = rule.Star
	}
	rn.undo = rn.undo[:mark]
}

// refreshRound is how many stale candidates a refresh re-measures at a
// time before it compares the best fresh marginal with the next stale one:
// its walks cost by the candidate, so what is past the winner is never
// walked. It is fixed, never a function of Workers, so that what a refresh
// reads is the same at any worker count.
const refreshRound = 4

// refreshStale opens steps 2..K. Every cached marginal was measured
// against a smaller selection and can only have fallen since, so stale
// candidates — those deriveStale could not re-measure — are re-measured,
// reset and recounted in ascending row order by the counting kernels, as a
// first count sums them, in descending order of their stale marginal, in
// rounds of refreshRound, until the best fresh marginal matches or beats
// every stale one left. It continues through equality so that each
// candidate tied for the maximum is fresh and the level-then-key tie-break
// of findBestMarginal sees them all — which is also why it does not matter
// that candidates of equal stale marginal stand here in merge order, and a
// round boundary may fall between any two of them: the loop ends only past
// the last one that could tie. A candidate whose stale marginal is not
// positive can never be selected and is left alone. The best fresh
// marginal, derived or refreshed (−Inf when nothing is fresh), is returned
// as the step's opening threshold H.
func (rn *runner) refreshStale() float64 {
	best := math.Inf(-1)
	if len(rn.selected) == 0 {
		return best
	}
	step := rn.step()
	// Descending stale marginal, equal ones in counting order: a stable
	// sort's order at an unstable sort's cost. The ranking is serial work no
	// poll can cut, and a wide table counts a hundred thousand candidates.
	type ranked struct {
		marginal float64
		at       int32 // the candidate's place in rn.store.counted
	}
	var order []ranked
	for i, c := range rn.store.counted {
		switch {
		case c.asOf == step:
			best = max(best, c.marginal)
		case c.marginal > 0:
			order = append(order, ranked{c.marginal, int32(i)})
		}
	}
	// A stale marginal below a derived one is never walked: best only rises.
	order = slices.DeleteFunc(order, func(r ranked) bool { return r.marginal < best })
	slices.SortFunc(order, func(a, b ranked) int {
		if c := cmp.Compare(b.marginal, a.marginal); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	round, plans := make([]*cand, 0, refreshRound), make([]candPlan, 0, refreshRound)
	for len(order) > 0 && order[0].marginal >= best {
		if rn.ctxErr != nil {
			break // a cut round: indexPass polls before every walk
		}
		round, plans = round[:0], plans[:0]
		for _, r := range order[:min(refreshRound, len(order))] {
			c := rn.store.counted[r.at]
			round, plans = append(round, c), append(plans, rn.planCand(c))
		}
		rn.countCandidates(round, plans)
		rn.stats.CandidatesCounted += len(round)
		for _, c := range round {
			c.asOf = step
			best = max(best, c.marginal)
		}
		order = order[len(round):]
	}
	return best
}

// freeColumns lists columns not instantiated by the base rule.
func (rn *runner) freeColumns() []int {
	var cols []int
	for c, v := range rn.base {
		if v == rule.Star {
			cols = append(cols, c)
		}
	}
	return cols
}

// extAcc accumulates, for one parent rule and one of its star columns, the
// mass, marginal value and residual bound of every one-value extension,
// indexed by value id. expandParents fills one set per parent it expands,
// the base included.
type extAcc struct {
	col    int
	weight float64   // of every extension in this column
	cnt    []float64 // mass per value
	mv     []float64 // marginal per value; nil while nothing is selected (it is weight·cnt)
	r      []float64 // R per value; nil where it is the paper's bound (see tracksResidual)
	hit    []bool    // some covered row holds the value; nil where cnt ≠ 0 says so
}

// add books one covered row holding value val: its mass, its marginal
// contribution given tw, the weight the selection already claims for it,
// and its term of R, resid (see residual).
func (a *extAcc) add(val rule.Value, mass, tw, resid float64) {
	if a.hit != nil {
		a.hit[val] = true
	}
	a.cnt[val] += mass
	if a.mv != nil && a.weight > tw {
		a.mv[val] += (a.weight - tw) * mass
	}
	if a.r != nil {
		a.r[val] += resid
	}
}

// seen reports whether any covered row held value val — without presence
// marks, whether the extension's mass is non-zero.
func (a *extAcc) seen(val int) bool {
	if a.hit != nil {
		return a.hit[val]
	}
	return a.cnt[val] != 0
}

// marginal is the marginal value of the extension by val.
func (a *extAcc) marginal(val int) float64 {
	if a.mv != nil {
		return a.mv[val]
	}
	return a.weight * a.cnt[val]
}

// residual is the extension by val's R: as the walk kept it, or, where it
// kept none (tracksResidual), the paper's bound over what the walk
// measured, which is R there; +Inf before anything is selected.
func (a *extAcc) residual(val int, mw float64) float64 {
	switch {
	case a.r != nil:
		return a.r[val]
	case a.mv != nil:
		return a.mv[val] + a.cnt[val]*(mw-a.weight)
	}
	return math.Inf(1)
}

// mass is the aggregate mass of row.
func (rn *runner) mass(row int) float64 {
	if rn.unitMass {
		return 1
	}
	return rn.agg.Mass(rn.tab, row)
}

// tracksResidual reports whether an expansion walk keeps R for extensions
// of the given weight. Against the selection topW reflects, R falls below
// the paper's bound only by what rows claimed above the rule's own weight
// take from it — Σ (topW − W)·mass over them — so for an extension no
// lighter than every selected rule, and for every extension before the
// first selection, R is the paper's bound, and the walk saves itself the
// add.
func (rn *runner) tracksResidual(weight float64) bool { return weight < rn.claimed }

// residual is a row's term of R: what it leaves a rule of weight mw to
// claim, (mw − tw)·mass, where tw is the weight the selection already
// claims for it — a negative mass, which no super-rule's marginal gains
// by, counted as none.
func (rn *runner) residual(mass, tw float64) float64 {
	if mass <= 0 {
		return 0
	}
	return (rn.mw - tw) * mass
}

// bookRow adds one covered row to each of a parent's accumulators and
// returns the cells that booked.
func (rn *runner) bookRow(accs []extAcc, row int) int64 {
	mass, tw := rn.mass(row), 0.0
	if rn.topW != nil {
		tw = rn.topW[row]
	}
	resid := rn.residual(mass, tw)
	for a := range accs {
		accs[a].add(rn.tab.Value(accs[a].col, row), mass, tw, resid)
	}
	return int64(len(accs))
}

// generateCandidates builds the next level: every one-column extension of
// a previous-level candidate with a value that co-occurs in the data, in
// merge order — prev's parents in order, each one's children by (column,
// value id), a rule listed where its first parent reaches it. The level is
// not sorted: nothing reads its order but the merge of the next level, and
// the one thing a sort decided, which of two equal marginals wins a step,
// findBestMarginal decides by comparing the two keys (lazy greedy needs the
// maximum, not a ranking). prev is level 0 or a filtered merge, so the
// order is a function of the view alone — no map is iterated. Level 1 is
// never capped by maxCandidates. Extension sets are step-invariant (they
// depend only on the view's rows), so each parent's supported children are
// discovered once (expandParents) and merged from the cache on later steps
// — a greedy step only pays a generation pass for parents it is the first
// to reach.
//
// The bound is tested before the walk: a parent whose own subRuleBound is
// below the step's threshold H is not expanded. Every extension its walk
// would discover is either uncounted — and upperBound, a min that contains
// exactly this float, would prune it against the same H — or counted, and
// then cached on the expanded parent that materialized it. The parent stays
// a survivor and a bound source, and the first later step whose H falls to
// its bound walks it, measuring its children fresh. Only the walk is gated,
// never the merge: an expanded parent's cached child can hold the step's
// maximum while the parent's bound — the same sum in another order — sits
// one ulp below it.
func (rn *runner) generateCandidates(prev []*cand, H float64) []*cand {
	fresh := prev[:0:0]
	for _, c := range prev {
		if !c.expanded && rn.subRuleBound(c) >= H {
			fresh = append(fresh, c)
		}
	}
	if len(fresh) > 0 {
		rn.expandParents(fresh)
		if rn.ctxErr != nil {
			return nil
		}
	}
	// Merge the parents' child lists, deduplicating shared children (one
	// rule reachable through several parents) by epoch marker.
	rn.gen++
	var next []*cand
	for _, p := range prev {
		for _, ch := range p.children {
			if ch.lastGen == rn.gen {
				continue
			}
			ch.lastGen = rn.gen
			next = append(next, ch)
			if len(next) >= maxCandidates && p != rn.root {
				rn.stats.CandidateCapHit = true
				return next
			}
		}
	}
	return next
}

// expandParents discovers every supported one-column extension of the
// given parents and caches them as the parents' children, registering new
// candidates in the store — and counts them where it finds them. The walk
// over a parent's coverage visits exactly the rows its extensions cover,
// ascending like every counting kernel, so each extension's mass and
// marginal accumulate per (parent, star column, value) bit-identical to a
// count of its own.
//
// The pass is allocation-light: phase 1 fills one value-indexed accumulator
// per (parent, star column); phase 2 materializes each distinct extension
// once, and only touches the rule/key machinery for candidates the store
// has never seen.
//
// The base, level 0, is expanded alone, in step 1. Its coverage is the
// whole table: under Count the index's masses are its extensions' counts,
// no row read; under Sum one pass over the rows sums them (rowPass). Level
// 1, expanded in step 1 under Count, is counted from the index's pair
// masses where the table keeps them (pairPass), no row read either.
func (rn *runner) expandParents(parents []*cand) {
	accs := rn.accumulators(parents)
	switch {
	case parents[0] != rn.root:
	case len(accs[0]) == 0:
		rn.root.expanded = true // no column within mw: nothing to read
		return
	case rn.countAgg:
		// Count(base+(c,v)) over the whole table is the mass of (c,v)'s rows
		// (table.Index.Mass — the posting list's length on an unweighted
		// table, its multiplicities summed on a weighted one, an integer
		// either way, so the float is the one a sum over the rows gives).
		for a := range accs[0] {
			acc := &accs[0][a]
			for val := range acc.cnt {
				acc.cnt[val] = float64(rn.ix.Mass(acc.col, rule.Value(val)))
			}
		}
		rn.stats.IndexLevels++
		rn.materializeChildren(parents, accs)
		return
	default:
		rn.rowPass(accs[0])
		if rn.ctxErr != nil {
			return // a cut pass: some rows were never booked
		}
		rn.materializeChildren(parents, accs)
		return
	}
	if rn.pairPass(parents, accs) {
		rn.stats.IndexLevels++
		rn.materializeChildren(parents, accs)
		return
	}
	// Walk each parent's own coverage, or route siblings' rows from one
	// walk of their from's (expansionUnits). Workers take whole units, and
	// each parent's rows reach only that parent's accumulators and cover,
	// in ascending row order, so nothing is shared and no merge is needed.
	plans := rn.planIndex(parents)
	reserved := rn.reserveCovers(parents, plans, accs)
	units, rows := rn.expansionUnits(parents, plans)
	if passUnits != nil {
		passUnits(rn, parents, plans, units)
	}
	// Each indexPass worker's keepers, one a member of a unit. The run
	// keeps them from pass to pass: a keeper allocates its words once, and
	// again only after a Keep gave them to a bitset.
	if nw := rn.passWorkers(len(parents)); len(rn.keepers) < nw {
		rn.keepers = append(rn.keepers, make([][maxSiblings]table.Keeper, nw-len(rn.keepers))...)
	}
	rn.indexPass(len(parents), rows, func(g, u int, st *Stats) {
		rn.walkUnit(&rn.keepers[g], parents, plans, units[u], accs, reserved, st)
	})
	if rn.ctxErr != nil {
		return // a cut pass: some parents were never walked
	}
	for p, c := range parents {
		if reserved[p] > 0 {
			rn.coverLeft += reserved[p] - c.cover.Bytes()
		}
	}
	rn.materializeChildren(parents, accs)
}

// pairPass fills a pass's accumulators from the index's pair masses
// (table.Index.Pairs) and reports whether it did: where every parent is
// level 1, the pass runs before the first selection (topW nil) under the
// Count aggregate — so that every accumulator holds counts alone, weights
// being non-negative — and the table keeps the grids. Count(base+(a,va)+(b,vb)) over the whole table is
// the grid's mass, an integer, so the float is the one a walk of (a,va)'s
// container summing its rows gives. The pass reads no word and books no
// cell, and keeps no cover, as level 1's walks keep none. Any other pass —
// later steps, Sum, tables over the grids' budget — walks.
func (rn *runner) pairPass(parents []*cand, accs [][]extAcc) bool {
	if rn.topW != nil || !rn.countAgg {
		return false
	}
	for _, c := range parents {
		if c.from != nil {
			return false
		}
	}
	pm := rn.ix.Pairs()
	if pm == nil {
		return false
	}
	for p, c := range parents {
		a := rn.addedCol(c)
		for i := range accs[p] {
			acc := &accs[p][i]
			for vb := range acc.cnt {
				acc.cnt[vb] = float64(pm.Mass(a, c.r[a], acc.col, rule.Value(vb)))
			}
		}
	}
	return true
}

// accumulators is expandParents' phase 1: accs[p] holds one accumulator per
// star column of parent p whose extensions stay within mw (weights are
// monotone, so a column over the cap has no admissible extension at any
// depth).
func (rn *runner) accumulators(parents []*cand) [][]extAcc {
	accs := make([][]extAcc, len(parents))
	for p, c := range parents {
		for _, col := range rn.freeCols {
			if c.r[col] != rule.Star {
				continue
			}
			m := c.mask
			m.Set(col)
			acc := extAcc{col: col, weight: rn.w.Weight(m)}
			if acc.weight > rn.mw {
				continue
			}
			dc := rn.tab.DistinctCount(col)
			acc.cnt = make([]float64, dc)
			if rn.topW != nil {
				acc.mv = make([]float64, dc)
			}
			if rn.tracksResidual(acc.weight) {
				acc.r = make([]float64, dc)
			}
			if !rn.countAgg && c != rn.root {
				// Masses may be zero or negative: presence needs its own
				// mark. Level 1 holds the extensions of non-zero mass alone,
				// so the base's accumulators keep none.
				acc.hit = make([]bool, dc)
			}
			accs[p] = append(accs[p], acc)
		}
	}
	return accs
}

// walkUnit walks unit u of an expansion pass, booking into st: one parent
// by its plan, or a routed run of siblings by route. Each member's rows go
// to its accumulators, accs[p], and, where the walk keeps its rows
// (reserved[p] > 0), to one of the worker's keepers, which then gives the
// member its cover: only a walk that keeps them pays to collect them.
func (rn *runner) walkUnit(keepers *[maxSiblings]table.Keeper, parents []*cand, plans []candPlan, u unit, accs [][]extAcc, reserved []int64, st *Stats) {
	var mine [maxSiblings][]extAcc
	var keeps [maxSiblings]*table.Keeper
	for j, p := range u.members {
		mine[j] = accs[p]
		if reserved[p] > 0 {
			keeps[j] = &keepers[j]
			keeps[j].Start(rn.tab.NumRows())
		}
	}
	if p := u.members[0]; u.routed {
		rn.route(st, parents, u, &mine, &keeps)
	} else {
		acc, k := mine[0], keeps[0]
		rn.walk(parents[p], plans[p], st, func(row int) {
			st.CellsBooked += rn.bookRow(acc, row)
			if k != nil {
				k.Add(row)
			}
		})
	}
	for j, p := range u.members {
		if keeps[j] != nil {
			cover := keeps[j].Keep(reserved[p])
			parents[p].cover = &cover
			st.KeeperAdds += int64(cover.Len())
		}
	}
}

// materializeChildren is expandParents' phase 2: resolve each distinct extension the walk saw to its
// (possibly already-registered) candidate, cache it on the parent, and hand
// a not yet counted one the mass and marginal the walk measured — if it
// survives this step's bound test it is counted without a read of its own.
// It stops where the context fires, leaving that parent unexpanded, and
// where a level past the first reaches maxCandidates.
func (rn *runner) materializeChildren(parents []*cand, accs [][]extAcc) {
	step := rn.step()
	created, resolved := 0, 0
	for p, c := range parents {
		for a := range accs[p] {
			acc := &accs[p][a]
			for val, nv := 0, rn.tab.DistinctCount(acc.col); val < nv; val++ {
				if !acc.seen(val) {
					continue
				}
				if rn.canceledAt(resolved) {
					return
				}
				resolved++
				child := rn.childOf(c, acc, rule.Value(val), &created)
				c.children = append(c.children, child)
				if !child.counted {
					child.count, child.marginal, child.asOf = acc.cnt[val], acc.marginal(val), step
				}
				// A cached child keeps its marginal, stale or not, but no R
				// the walk measured is looser than an older one.
				child.resid = min(child.resid, acc.residual(val, rn.mw))
				if created >= maxCandidates && c != rn.root {
					// Abort without marking this parent expanded: a later
					// step (with a smaller active candidate set) must be
					// able to finish the enumeration. Re-expansion appends
					// the already-linked children again, which the merge's
					// epoch dedup absorbs.
					rn.stats.CandidateCapHit = true
					return
				}
			}
		}
		c.expanded = true
	}
}

// childOf resolves the extension of parent in acc's column by val to its
// shared cand — from the store when another parent (or an earlier step)
// already materialized it, freshly registered otherwise, which is the one
// case that allocates (the rule and its key); created counts new
// registrations for the per-level cap.
func (rn *runner) childOf(parent *cand, acc *extAcc, val rule.Value, created *int) *cand {
	if c := rn.find(parent.r, acc.col, val); c != nil {
		return c
	}
	m := parent.mask
	m.Set(acc.col)
	c := &cand{r: parent.r.With(acc.col, val), key: string(rn.store.scratch), mask: m, weight: acc.weight, from: parent, resid: math.Inf(1)}
	if parent == rn.root {
		c.from = nil // level 1: its own index containers are its cover
	}
	rn.store.byKey[c.key] = c
	*created++
	return c
}

// subRuleBound is the bound a counted rule c places on the marginal value
// of every super-rule: the smaller of the paper's MV(c) + Count(c)·(mw −
// W(c)) and the residual bound R(c) = Σ over c's rows of (mw − topW)·mass.
// A super-rule gains at most mw − topW on each row it covers, and covers
// only rows of c; the paper's bound charges every row mw − W(c) beyond its
// marginal, even a row a selected rule already claims above W(c), so R is
// the tighter from the second step on, and equal in the first. topW only
// rises, so an R measured in an earlier step stays a bound. upperBound
// takes the min of it over a candidate's sub-rules and generateCandidates
// gates c's expansion walk by it, so both read the same float.
func (rn *runner) subRuleBound(c *cand) float64 {
	return min(rn.paperBound(c), c.resid)
}

// paperBound is Algorithm 2's bound on the marginal value of c's
// super-rules, MV(c) + Count(c)·(mw − W(c)), over c's last measure.
func (rn *runner) paperBound(c *cand) float64 {
	return c.marginal + c.count*(rn.mw-c.weight)
}

// upperBound computes M from Algorithm 2 step 3.3.2: the tightest bound
// min over counted sub-rules R' of MV(R') + Count(R')·(mw − W(R')) over the
// candidate's immediate sub-rules. Any counted sub-rule bounds all its
// super-rules' marginal values, because each tuple a super-rule covers is
// covered by R' and can contribute at most mw − (mass already claimed).
// Each sub-rule is probed by its key alone — no rule or string is built.
// Only free columns are dropped: sub-rules starring a base column are never
// counted, so probing them cannot tighten the bound.
func (rn *runner) upperBound(c *cand) float64 {
	bound := math.Inf(1)
	consider := func(sc *cand) {
		if sc == nil || !sc.counted {
			return
		}
		if b := rn.subRuleBound(sc); b < bound {
			bound = b
		}
	}
	for _, col := range rn.freeCols {
		if c.r[col] != rule.Star {
			consider(rn.find(c.r, col, rule.Star))
		}
	}
	return bound
}

// countCandidates measures count, marginal value and R for each candidate
// against the selection so far, from zero, each candidate walked by the
// kernel its plan names and candidates fanned out across workers, a unit
// each, weighed by the rows its plan visits at most. A
// candidate's rows reach it ascending, so its sums are bit-identical on
// every kernel and at any worker count. It runs from step 2 on: every
// candidate of step 1 is measured by the walk that creates it.
func (rn *runner) countCandidates(cands []*cand, plans []candPlan) {
	topW := rn.topW
	rows := make([]int64, len(plans))
	for i, plan := range plans {
		rows[i] = plan.rows
	}
	rn.indexPass(len(cands), rows, func(_, i int, st *Stats) {
		c := cands[i]
		c.count, c.marginal, c.resid = 0, 0, 0
		rn.walk(c, plans[i], st, func(row int) {
			mass, tw := rn.mass(row), topW[row]
			c.count += mass
			if c.weight > tw {
				c.marginal += (c.weight - tw) * mass
			}
			c.resid += rn.residual(mass, tw)
			st.CellsBooked++
		})
	})
}

// finalStats snapshots the run's statistics, attributing scanned rows to
// the sample when the view was one (SampleScale set): every row a sampled
// run visits — the copy's included — is an in-memory sample tuple, not
// authoritative table I/O.
func (rn *runner) finalStats() Stats {
	if rn.scale != 1 {
		rn.stats.SampledRowsScanned = rn.stats.RowsScanned
	}
	return rn.stats
}
