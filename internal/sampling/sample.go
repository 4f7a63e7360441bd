// Package sampling implements Section 4: dynamic sample maintenance for
// interactive drill-downs on tables too large to rescan per click.
//
// A Sample is a uniform random subset of the rows covered by a filter rule,
// kept in memory with an exact coverage count learned during the scan that
// created it. The SampleHandler serves drill-down requests from memory via
// Find (exact filter match) or Combine (union of samples whose filters are
// sub-rules of the request — uniform because every requested tuple had the
// same inclusion probability in each contributing sample), falling back to
// Create (one accounted pass building a reservoir sample). Memory is
// allocated across displayed rules by the Problem 5 dynamic program.
package sampling

import (
	"math/rand"
	"sort"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// Sample is a uniform random sample of the master-table rows covered by
// Filter. Rows holds master-table row indices so overlapping samples can be
// deduplicated exactly when combined.
type Sample struct {
	// Filter is fs: every sampled row is covered by it.
	Filter rule.Rule
	// Rows are master-table row indices, each included with equal
	// probability len(Rows)/ExactCount.
	Rows []int
	// ExactCount is Count(Filter) over the master table, learned for free
	// during the creating scan.
	ExactCount int

	lastUsed int64 // eviction clock
	sorted   []int // cached ascending view of Rows; see sortedRows
}

// sortedRows returns the sample's rows as an ascending row set, computed
// once per sample and cached so repeat serves (Find, the cascade's fast
// path) are zero-cost. Rows itself keeps its reservoir insertion order —
// budget trims drop a uniform suffix, which a sorted slice would bias —
// and a trim invalidates the cache by the length check.
func (s *Sample) sortedRows() []int {
	if s.sorted != nil && len(s.sorted) == len(s.Rows) {
		return s.sorted
	}
	if sort.IntsAreSorted(s.Rows) {
		s.sorted = s.Rows
	} else {
		s.sorted = make([]int, len(s.Rows))
		copy(s.sorted, s.Rows)
		sort.Ints(s.sorted)
	}
	return s.sorted
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

// reservoir maintains a fixed-capacity uniform sample of a stream of row
// indices (Vitter's Algorithm R, the method cited in Section 4.3).
type reservoir struct {
	capacity int
	rows     []int
	seen     int
	rng      *rand.Rand
}

func newReservoir(capacity int, rng *rand.Rand) *reservoir {
	return &reservoir{capacity: capacity, rows: make([]int, 0, capacity), rng: rng}
}

// offer considers row i for inclusion.
func (r *reservoir) offer(i int) {
	r.seen++
	if len(r.rows) < r.capacity {
		r.rows = append(r.rows, i)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.capacity {
		r.rows[j] = i
	}
}

// CreateSample scans the store once and returns a uniform sample of up to
// capacity rows covered by filter, with the exact coverage count.
func CreateSample(store *storage.Store, filter rule.Rule, capacity int, rng *rand.Rand) *Sample {
	res := newReservoir(capacity, rng)
	t := store.Table()
	store.Scan(func(i int) bool {
		if t.Covers(filter, i) {
			res.offer(i)
		}
		return true
	})
	return &Sample{Filter: filter, Rows: res.rows, ExactCount: res.seen}
}

// View is the sample view returned to the drill-down engine: a zero-copy
// row view over the master table plus the scale factor that converts
// sample-local aggregates into master-table estimates.
type View struct {
	// Tab holds the sampled tuples as a zero-copy view sharing the master
	// table's column arrays, all covered by the requested rule.
	Tab *table.View
	// Scale converts counts on Tab to estimated counts on the master table.
	Scale float64
	// Method records how the view was served (Find, Combine, or Create).
	Method Method
	// EstimatedCount is the estimated master-table Count of the requested
	// rule (Tab.NumRows() * Scale, precomputed for convenience).
	EstimatedCount float64
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
