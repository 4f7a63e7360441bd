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
// sample). The resident samples stay within the memory budget M by evicting
// the least recently used (lru.List, each sample costing its size), and
// memory is allocated across displayed rules by the Problem 5 dynamic
// program.
//
// A sample is served in one of two forms, chosen once per handler
// (Handler.ServeGrouped): drawn from the table's distinct tuples, the
// weighted table of its own distinct tuples; drawn from the rows, the rows
// as they are.
package sampling

import (
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// Sample is a uniform random sample, without replacement, of the
// master-table rows covered by Filter. Rows names them by their unit in the
// handler's population — the row's index where the handler draws rows, its
// rank in tuple-major order where it draws from the distinct tuples — so
// overlapping samples can be deduplicated exactly when combined. A sample is
// a set, and is never changed once drawn: Rows is ascending, which is the
// order every view of it reads.
type Sample struct {
	// Filter is fs: every sampled row is covered by it.
	Filter rule.Rule
	// Rows are the sampled rows' units, ascending, each included with equal
	// probability len(Rows)/ExactCount.
	Rows []int
	// ExactCount is Count(Filter) over the master table, learned for free
	// during the creating walk.
	ExactCount int

	// tab caches what the population makes of Rows (Handler.viewOf), built by
	// the sample's first serve: a sample's weighted table is built once per
	// sample, not per serve.
	tab *table.View
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

// View is the sample view returned to the drill-down engine: the sampled
// tuples as a search reads them, plus the scale factor that converts
// sample-local aggregates into master-table estimates.
type View struct {
	// Tab holds the sampled tuples, all covered by the requested rule, in the
	// form the handler serves them (Handler.ServeGrouped): drawn from the
	// distinct tuples, the whole of a weighted table of the sample's own, a
	// row for each distinct tuple carrying the number of sampled rows equal
	// to it; drawn from the rows, a zero-copy view of the master table's
	// rows, a row each.
	Tab *table.View
	// Scale converts counts on Tab to estimated counts on the master table.
	Scale float64
	// Method records how the view was served (Find, Combine, or Create).
	Method Method
	// EstimatedCount is the estimated master-table Count of the requested
	// rule (Tab.NumTuples() * Scale, precomputed for convenience).
	EstimatedCount float64

	read table.Tally // see Read
}

// Read returns the number of rows this serve read to build Tab: the
// distinct-table rows copied into a tuple sample's table. A resident sample's
// Tab is built by its first serve (its Create, or the first Find after a
// Prefetch drew it), and Combine's union, kept nowhere, by every serve; a
// serve that found Tab built, or serves plain rows, read nothing. The caller
// accounts for the reads it caused.
func (v *View) Read() int { return int(v.read.Rows) }

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
