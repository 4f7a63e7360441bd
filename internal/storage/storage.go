// Package storage simulates the on-disk table of Section 4. The paper's
// cost model is that a full pass over a table too large for memory
// dominates response time; the SampleHandler exists to avoid such passes.
//
// We stand in for the disk with an in-memory table wrapped in a Store that
// accounts every full scan, row read, and inverted-index lookup, so
// experiments can report pass counts alongside wall time. The substitution
// preserves the relevant behaviour: scans remain the dominant,
// linear-in-|T| cost, index lookups cost their posting entries, and the
// Find/Combine/Create decision logic is exercised identically.
package storage

import (
	"sync"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// Stats counts the I/O the store has served. Index reads are accounted
// separately from scans so pass-count experiments (Figure 5 style) stay
// honest when rule filters are answered from posting lists instead of full
// passes.
type Stats struct {
	FullScans     int64 // complete passes over the backing table
	RowsRead      int64 // total rows delivered to scan callbacks
	IndexLookups  int64 // rule filters answered from the inverted index
	IndexRowsRead int64 // posting entries and bitset words read by those lookups
}

// Store wraps the authoritative full table behind a scan interface with
// accounting. It is safe for concurrent use.
type Store struct {
	t *table.Table

	mu            sync.Mutex
	fullScans     int64
	rowsRead      int64
	indexLookups  int64
	indexRowsRead int64
}

// NewStore wraps t.
func NewStore(t *table.Table) *Store { return &Store{t: t} }

// Table exposes the backing table for metadata (schema, dictionaries,
// cardinalities). Row data should be accessed through Scan so it is
// accounted.
func (s *Store) Table() *table.Table { return s.t }

// NumRows returns the row count without performing I/O (a real system
// would have this in catalog metadata).
func (s *Store) NumRows() int { return s.t.NumRows() }

// Scan performs one accounted full pass, invoking fn for every row index
// until fn returns false. Even early-terminated scans count as full scans
// for pass accounting (reservoir building always scans fully anyway).
func (s *Store) Scan(fn func(i int) bool) { s.ScanOf(s.t, fn) }

// ScanOf is Scan over t's rows, where t is the backing table or the
// distinct-tuple table Distinct returned for it. The rows read are
// accounted either way; only a pass over the backing table is a full scan.
func (s *Store) ScanOf(t *table.Table, fn func(i int) bool) {
	t.EachRow(s, fn)
	if t == s.t {
		s.mu.Lock()
		s.fullScans++
		s.mu.Unlock()
	}
}

// FilterRows returns the row indices covered by r, answered from the
// table's shared inverted index and accounted as index I/O: the lookup is
// charged the posting entries and bitset words it read, not a full pass.
func (s *Store) FilterRows(r rule.Rule) []int { return s.FilterRowsOf(s.t, r) }

// FilterRowsOf is FilterRows against t's own index, where t is the backing
// table or the distinct-tuple table Distinct returned for it: rules mean
// the same on both, and the store accounts for reads of either.
func (s *Store) FilterRowsOf(t *table.Table, r rule.Rule) []int {
	rows := t.Index().Rows(s, r)
	s.mu.Lock()
	s.indexLookups++
	s.mu.Unlock()
	return rows
}

// Distinct returns the backing table's distinct-tuple table, nil when the
// table does not compress (see table.Table.Distinct). The table is built
// once, by whichever store asks first; that store accounts for the pass —
// the rows it read, fewer than a full scan when the build gave up — and
// books them into m too, the ledger of the request that caused them. Every
// other call reads nothing and books nothing.
func (s *Store) Distinct(m table.Meter) *table.Table {
	var read table.Tally
	d := s.t.Distinct(&read)
	if read.Rows > 0 {
		s.mu.Lock()
		s.fullScans++
		s.rowsRead += read.Rows
		s.mu.Unlock()
		m.Book(read.Rows, 0, 0)
	}
	return d
}

// Book makes the store a table.Meter for the kernels that read its tables:
// rows into the rows read, posting entries and bitset words into the index
// rows read.
func (s *Store) Book(rows, entries, words int64) {
	s.mu.Lock()
	s.rowsRead += rows
	s.indexRowsRead += entries + words
	s.mu.Unlock()
}

// Stats returns a snapshot of accumulated I/O counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		FullScans:     s.fullScans,
		RowsRead:      s.rowsRead,
		IndexLookups:  s.indexLookups,
		IndexRowsRead: s.indexRowsRead,
	}
}

// ResetStats zeroes the counters (between experiment trials).
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.fullScans, s.rowsRead = 0, 0
	s.indexLookups, s.indexRowsRead = 0, 0
	s.mu.Unlock()
}
