package storage

import (
	"testing"

	"smartdrill/internal/table"
)

func fixture(t *testing.T) *table.Table {
	t.Helper()
	b := table.MustBuilder([]string{"A"}, nil)
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			b.MustAddRow([]string{"even"})
		} else {
			b.MustAddRow([]string{"odd"})
		}
	}
	return b.Build()
}

func TestScanAccounting(t *testing.T) {
	s := NewStore(fixture(t))
	seen := 0
	s.Scan(func(i int) bool { seen++; return true })
	if seen != 10 {
		t.Fatalf("scanned %d rows, want 10", seen)
	}
	st := s.Stats()
	if st.FullScans != 1 || st.RowsRead != 10 {
		t.Fatalf("stats = %+v", st)
	}
	s.Scan(func(i int) bool { return true })
	if got := s.Stats().FullScans; got != 2 {
		t.Fatalf("FullScans = %d, want 2", got)
	}
	s.ResetStats()
	if st := s.Stats(); st.FullScans != 0 || st.RowsRead != 0 {
		t.Fatalf("reset stats = %+v", st)
	}
}

// TestScanOfDistinctAccounting: a pass over the distinct-tuple table books
// the tuples it read and no full scan — that is a pass over the table itself.
func TestScanOfDistinctAccounting(t *testing.T) {
	s := NewStore(fixture(t))
	d, read := s.Distinct()
	if d == nil || read != 10 || d.NumRows() != 2 {
		t.Fatalf("distinct table %v after %d rows", d != nil, read)
	}
	built := s.Stats()
	mass := 0
	s.ScanOf(d, func(i int) bool { mass += d.Multiplicity(i); return true })
	if mass != 10 {
		t.Fatalf("multiplicities sum to %d, want 10", mass)
	}
	if st := s.Stats(); st.FullScans != built.FullScans || st.RowsRead != built.RowsRead+2 {
		t.Fatalf("stats = %+v after the build's %+v, want two more rows and no more scans", st, built)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewStore(fixture(t))
	seen := 0
	s.Scan(func(i int) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d rows", seen)
	}
	if got := s.Stats().RowsRead; got != 3 {
		t.Fatalf("RowsRead = %d, want 3", got)
	}
}

func TestFilterRowsAccounting(t *testing.T) {
	tab := fixture(t)
	s := NewStore(tab)
	even, err := tab.EncodeRule(map[string]string{"A": "even"})
	if err != nil {
		t.Fatal(err)
	}
	rows := s.FilterRows(even)
	if want := tab.FilterIndicesScan(even); len(rows) != len(want) {
		t.Fatalf("FilterRows returned %d rows, scan %d", len(rows), len(want))
	}
	// Half of ten rows is a dense value: its one container is a bitset, and
	// its five rows are read off the bitset's one word.
	st := s.Stats()
	if st.IndexLookups != 1 || st.IndexRowsRead != 1 {
		t.Fatalf("index stats = %+v, want 1 lookup reading 1 bitset word", st)
	}
	if st.FullScans != 0 || st.RowsRead != 0 {
		t.Fatalf("FilterRows must not account as a scan: %+v", st)
	}
	s.ResetStats()
	if st := s.Stats(); st.IndexLookups != 0 || st.IndexRowsRead != 0 {
		t.Fatalf("reset must clear index stats: %+v", st)
	}

	// Two of a hundred rows is a sparse value: a posting list, an entry read
	// per row.
	b := table.MustBuilder([]string{"A"}, nil)
	for i := 0; i < 100; i++ {
		v := "common"
		if i%50 == 7 {
			v = "rare"
		}
		b.MustAddRow([]string{v})
	}
	s = NewStore(b.Build())
	rare, err := s.Table().EncodeRule(map[string]string{"A": "rare"})
	if err != nil {
		t.Fatal(err)
	}
	if rows := s.FilterRows(rare); len(rows) != 2 || rows[0] != 7 || rows[1] != 57 {
		t.Fatalf("FilterRows(rare) = %v, want [7 57]", rows)
	}
	if st := s.Stats(); st.IndexLookups != 1 || st.IndexRowsRead != 2 {
		t.Fatalf("index stats = %+v, want 1 lookup reading 2 postings", st)
	}
}

func TestNumRowsNoIO(t *testing.T) {
	s := NewStore(fixture(t))
	if s.NumRows() != 10 {
		t.Fatal("NumRows mismatch")
	}
	if s.Stats().FullScans != 0 {
		t.Fatal("NumRows must not count as a scan")
	}
}
