package brs

import (
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// TestMetersBookEachClass: the two ledgers the engine hands the table
// kernels book each class of read — rows, posting entries, bitset words —
// into its own field, and a kernel's reads reach them whole.
func TestMetersBookEachClass(t *testing.T) {
	var st Stats
	var m table.Meter = &st
	m.Book(1, 20, 300)
	if want := (Stats{RowsScanned: 1, PostingsRead: 20, BitmapWordsRead: 300}); st != want {
		t.Fatalf("Stats booked %+v, want %+v", st, want)
	}

	tab := datagen.CensusProjected(2000, 4, 3)
	s := storage.NewStore(tab)
	m = s
	m.Book(1, 20, 300)
	if want := (storage.Stats{RowsRead: 1, IndexRowsRead: 320}); s.Stats() != want {
		t.Fatalf("Store booked %+v, want %+v", s.Stats(), want)
	}

	// One lookup, booked into each ledger and into a tally: the same reads.
	r := rule.Trivial(tab.NumCols())
	r[0], r[1] = 0, 0
	var tally table.Tally
	tab.Index().Rows(&tally, r)
	st = Stats{}
	tab.Index().Rows(&st, r)
	if st.PostingsRead != tally.Entries || st.BitmapWordsRead != tally.Words || st.RowsScanned != 0 || tally.Entries+tally.Words == 0 {
		t.Fatalf("Stats booked %+v for a lookup that read %+v", st, tally)
	}
	s.ResetStats()
	s.FilterRows(r)
	if want := (storage.Stats{IndexLookups: 1, IndexRowsRead: tally.Entries + tally.Words}); s.Stats() != want {
		t.Fatalf("Store booked %+v for a lookup that read %+v, want %+v", s.Stats(), tally, want)
	}
}
