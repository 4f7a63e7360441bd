package table

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smartdrill/internal/rule"
)

// grayCompare orders rows i and j of t by tuple order's definition:
// column by column in sig's order, a column's values ascending where the
// values the two rows share in the columns before it hold an even count of
// odd values, descending where they hold an odd count.
func grayCompare(t *Table, sig []int, i, j int) int {
	odd := false
	for _, c := range sig {
		a, b := t.Value(c, i), t.Value(c, j)
		if a != b {
			if odd {
				return cmp.Compare(b, a)
			}
			return cmp.Compare(a, b)
		}
		odd = odd != (a%2 == 1)
	}
	return 0
}

// cellAddr is the address of t's cell (c, i), which says whose array holds
// it.
func cellAddr(t *Table, c, i int) any {
	switch col := &t.cols[c]; col.width {
	case w8:
		return &col.u8[i]
	case w16:
		return &col.u16[i]
	}
	return &t.cols[c].i32[i]
}

// sliceMismatch holds got, the table View.Select made of rows of t, to a
// copy of them (Table.Select), and says where they differ: every cell and
// multiplicity, NumRows and NumTuples, every container of the index, and
// the pair masses where the copy keeps them (pairsMismatch holds those to a
// scan).
func sliceMismatch(t, got *Table, rows []int) error {
	want := t.Select(rows)
	if got.NumRows() != want.NumRows() || got.NumTuples() != want.NumTuples() || got.Weighted() != want.Weighted() {
		return fmt.Errorf("%d rows of %d tuples (weighted %v), a copy %d of %d (%v)",
			got.NumRows(), got.NumTuples(), got.Weighted(), want.NumRows(), want.NumTuples(), want.Weighted())
	}
	for i := 0; i < got.NumRows(); i++ {
		if got.Multiplicity(i) != want.Multiplicity(i) {
			return fmt.Errorf("row %d: multiplicity %d, a copy's %d", i, got.Multiplicity(i), want.Multiplicity(i))
		}
		for c := 0; c < got.NumCols(); c++ {
			if got.Value(c, i) != want.Value(c, i) {
				return fmt.Errorf("cell (%d, %d): %d, a copy's %d", c, i, got.Value(c, i), want.Value(c, i))
			}
		}
	}
	gi, wi := got.Index(), want.Index()
	for c := 0; c < got.NumCols(); c++ {
		for v := 0; v < got.DistinctCount(c); v++ {
			g, w := gi.Container(c, rule.Value(v)), wi.Container(c, rule.Value(v))
			if g.IsBitset() != w.IsBitset() || !slices.Equal(g.rows(), w.rows()) || gi.Mass(c, rule.Value(v)) != wi.Mass(c, rule.Value(v)) {
				return fmt.Errorf("column %d value %d: container %v (bitset %v), a copy's %v (%v)", c, v, g.rows(), g.IsBitset(), w.rows(), w.IsBitset())
			}
		}
	}
	if (gi.Pairs() == nil) != (wi.Pairs() == nil) {
		return fmt.Errorf("pair masses kept %v, by a copy %v", gi.Pairs() != nil, wi.Pairs() != nil)
	}
	return pairsMismatch(got)
}

// FuzzSelectSlice builds a random table (fuzzTable) and a random ascending
// row set of it — one run [lo, hi), or rows kept at random — and holds what
// View.Select makes of it to a copy (sliceMismatch): a run's table shares
// the table's arrays and books nothing, any other set's is a copy booked
// its rows. A grouped table's rows are in tuple order by its definition
// (grayCompare), each strictly after the one before it.
func FuzzSelectSlice(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(500), uint8(4), false, false, true)
	f.Add(int64(2), uint8(1), uint16(1500), uint8(3), true, true, true)
	f.Add(int64(3), uint8(2), uint16(400), uint8(3), false, true, false)
	f.Add(int64(4), uint8(3), uint16(1800), uint8(7), true, true, true)
	f.Add(int64(5), uint8(0), uint16(1), uint8(2), false, true, true)
	f.Fuzz(func(t *testing.T, seed int64, cols uint8, rows uint16, vals uint8, wide, weighted, run bool) {
		rng := rand.New(rand.NewSource(seed))
		tab := fuzzTable(rng, cols, rows, vals, wide, weighted)
		if tab.Weighted() {
			sig := make([]int, tab.NumCols())
			for c := range sig {
				sig[c] = c
			}
			slices.SortStableFunc(sig, func(a, b int) int { return cmp.Compare(tab.DistinctCount(a), tab.DistinctCount(b)) })
			for j := 1; j < tab.NumRows(); j++ {
				if grayCompare(tab, sig, j-1, j) >= 0 {
					t.Fatalf("grouped rows %d and %d are not in tuple order", j-1, j)
				}
			}
		}
		n := tab.NumRows()
		if n == 0 {
			return
		}
		sel := []int{} // an empty list, not nil: nil is the whole table
		if run {
			lo := rng.Intn(n)
			for i := lo; i < lo+1+rng.Intn(n-lo); i++ {
				sel = append(sel, i)
			}
		} else {
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel = append(sel, i)
				}
			}
		}
		var read Tally
		got := tab.ViewOf(sel).Select(&read, nil)
		_, one := oneRun(sel)
		if one != (len(sel) > 0 && sel[len(sel)-1]-sel[0]+1 == len(sel)) {
			t.Fatalf("rows %v: one run %v", sel, one)
		}
		if wantRd := int64(len(sel)); one {
			wantRd = 0
			for c := 0; c < tab.NumCols(); c++ {
				if cellAddr(got, c, 0) != cellAddr(tab, c, sel[0]) {
					t.Fatalf("column %d: the run's table copied its cells", c)
				}
			}
			if read.Rows != wantRd {
				t.Fatalf("a run of %d rows booked %+v", len(sel), read)
			}
		} else if read.Rows != wantRd {
			t.Fatalf("%d rows copied, booked %+v", len(sel), read)
		}
		if err := sliceMismatch(tab, got, sel); err != nil {
			t.Fatalf("%d of %d rows (one run %v): %v", len(sel), n, one, err)
		}
	})
}
