// Package sampling implements Section 4: dynamic sample maintenance for
// interactive drill-downs on tables too large to rescan per click.
//
// A Sample is a uniform random subset of the rows covered by a filter rule,
// kept in memory with an exact coverage count learned during the walk that
// created it — over the rows, or over the table's distinct tuples with their
// multiplicities (see population). The SampleHandler serves drill-down
// requests from memory via Find (exact filter match) or Combine (union of
// samples whose filters are sub-rules of the request — uniform because every
// requested tuple had the same inclusion probability in each contributing
// sample), falling back to Create (one accounted walk drawing a fresh
// sample). Memory is allocated across displayed rules by the Problem 5
// dynamic program.
package sampling

import (
	"math/rand"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// Sample is a uniform random sample, without replacement, of the
// master-table rows covered by Filter. Rows names them by their unit in the
// handler's population — the row's index where the handler draws rows, its
// rank in tuple-major order where it draws from the distinct tuples — so
// overlapping samples can be deduplicated exactly when combined.
type Sample struct {
	// Filter is fs: every sampled row is covered by it.
	Filter rule.Rule
	// Rows are the sampled rows' units, each included with equal
	// probability len(Rows)/ExactCount.
	Rows []int
	// ExactCount is Count(Filter) over the master table, learned for free
	// during the creating walk.
	ExactCount int

	lastUsed int64 // eviction clock
	sorted   []int // cached ascending view of Rows; see sortedRows

	// view caches what the population makes of sorted (Handler.viewOf): a
	// tuple sample's weighted table is built once per sample, not per serve.
	view *table.View

	// tuples caches a row sample's sorted rows grouped into distinct tuples —
	// nil, with grouped set, for the finding that the sample does not
	// compress; see tupleTable. A tuple sample is born grouped and never
	// uses them.
	tuples  *table.Table
	grouped bool
}

// sortedRows returns the sample's units as an ascending set, computed
// once per sample and cached so repeat serves (Find, the cascade's fast
// path) are zero-cost. Rows itself keeps its draw order — budget trims drop
// a uniform suffix, which a sorted slice would bias — and a trim invalidates
// the cache, and the view and tuple table made from it, by the length check.
func (s *Sample) sortedRows() []int {
	if s.sorted != nil && len(s.sorted) == len(s.Rows) {
		return s.sorted
	}
	s.view, s.tuples, s.grouped = nil, nil, false
	if sort.IntsAreSorted(s.Rows) {
		s.sorted = s.Rows
	} else {
		s.sorted = make([]int, len(s.Rows))
		copy(s.sorted, s.Rows)
		sort.Ints(s.sorted)
	}
	return s.sorted
}

// sampleGiveUp is the compression below which a row sample is searched row
// by row: grouping stops at the first tuple beyond len(rows)/sampleGiveUp
// distinct ones. Grouping n rows into D tuples costs n reads and saves
// n − D on every pass of the search it is built for, which makes at least
// two; from D < n/2 the first search already repays it. (The dataset's own
// table keeps a stricter rule, table.Distinct's, for a costlier build.) Only
// the row population groups: a sample drawn from the distinct tuples has
// nothing to find out.
const sampleGiveUp = 2

// groupRows groups an ascending row list of t into its distinct-tuple
// table, first-seen order following the rows so ties break as on the row
// view; nil when the rows do not compress. read is the rows the pass read.
// Row population only.
func groupRows(t *table.Table, rows []int) (d *table.Table, read int) {
	return t.GroupRows(rows, len(rows)/sampleGiveUp)
}

// tupleTable returns a row sample's rows, of table t, grouped into distinct
// tuples (see groupRows) — built by the first call after the sample was
// created or trimmed and kept beside sorted, as is the finding that there is
// none to have; read is non-zero for that call only. Row population only.
func (s *Sample) tupleTable(t *table.Table) (d *table.Table, read int) {
	rows := s.sortedRows() // drops a table grouped before a trim
	if !s.grouped {
		s.tuples, read = groupRows(t, rows)
		s.grouped = true
	}
	return s.tuples, read
}

// Rate returns the per-tuple inclusion probability of the sample.
func (s *Sample) Rate() float64 {
	if s.ExactCount == 0 {
		return 0
	}
	return float64(len(s.Rows)) / float64(s.ExactCount)
}

// Scale is Ns in the paper: multiply counts measured on the sample by Scale
// to estimate counts on the master table.
func (s *Sample) Scale() float64 {
	if len(s.Rows) == 0 {
		return 0
	}
	return float64(s.ExactCount) / float64(len(s.Rows))
}

// Size returns the number of sampled rows (the sample's memory footprint in
// tuples, the unit the paper's budget M is expressed in).
func (s *Sample) Size() int { return len(s.Rows) }

// CreateSample scans the store once and returns a uniform sample of up to
// capacity rows covered by filter, with the exact coverage count.
func CreateSample(store *storage.Store, filter rule.Rule, capacity int, rng *rand.Rand) *Sample {
	return rowPopulation{store}.draw([]rule.Rule{filter}, []int{capacity}, rng)[0]
}

// View is the sample view returned to the drill-down engine: the sampled
// tuples as a search reads them, plus the scale factor that converts
// sample-local aggregates into master-table estimates.
type View struct {
	// Tab holds the sampled tuples, all covered by the requested rule: for a
	// handler drawing rows, a zero-copy view sharing the master table's
	// column arrays, a row each; for one drawing from the distinct tuples
	// (Handler.SampleTuples), the whole of a weighted table of the sample's
	// own, a row for each distinct tuple carrying the number of sampled rows
	// equal to it.
	Tab *table.View
	// Scale converts counts on Tab to estimated counts on the master table.
	Scale float64
	// Method records how the view was served (Find, Combine, or Create).
	Method Method
	// EstimatedCount is the estimated master-table Count of the requested
	// rule (Tab.NumTuples() * Scale, precomputed for convenience).
	EstimatedCount float64

	rows   []int   // the units Tab was made from, ascending
	sample *Sample // the resident sample rows belongs to; nil for Combine's union
	copied int     // see Copied
}

// Copied returns the number of distinct-table rows this serve copied to
// build Tab: the sample's distinct tuples for the serve that first built a
// tuple sample's table (its Create, or the Find after a trim) and for every
// Combine, whose union is kept nowhere; zero when a resident sample's table
// was already there, and always on a handler drawing rows. The caller
// accounts for the reads it caused.
func (v *View) Copied() int { return v.copied }

// Tuples returns the view's tuples grouped: every distinct tuple of Tab once,
// in the order Tab first shows it, carrying the number of Tab's rows equal
// to it as its multiplicity, as a whole-table view with a warmed index of
// its own (see table.Table.GroupRows). Under the Count aggregate a search of
// it returns what a search of Tab returns and reads each tuple once per
// pass. It is nil when more than half of Tab's rows are distinct: such a
// sample is searched row by row.
//
// A resident row sample (Find, Create) groups its rows once, on the first
// call, and keeps the table until it is trimmed or evicted; Combine's union
// belongs to no sample and is grouped per call. read is the number of sample
// rows this call's grouping read — zero when the table was already there —
// so the caller can account for the pass it caused. A view drawn from the
// distinct tuples is grouped already: Tuples returns Tab, and read is zero.
func (v *View) Tuples() (tuples *table.View, read int) {
	t := v.Tab.Table()
	if t.Weighted() {
		return v.Tab, 0
	}
	var d *table.Table
	if v.sample != nil {
		d, read = v.sample.tupleTable(t)
	} else {
		d, read = groupRows(t, v.rows)
	}
	if d == nil {
		return nil, read
	}
	return d.All(), read
}

// Method identifies which of Section 4.3's three mechanisms served a
// request.
type Method int

// The three SampleHandler mechanisms, cheapest first.
const (
	Find Method = iota
	Combine
	Create
)

// String returns the paper's name for the mechanism.
func (m Method) String() string {
	switch m {
	case Find:
		return "Find"
	case Combine:
		return "Combine"
	case Create:
		return "Create"
	default:
		return "Unknown"
	}
}
