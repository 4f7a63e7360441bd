package table

import (
	"fmt"
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
)

// pairBudget is Σ over pairs of columns of d_a·d_b: the entries the pair
// masses of t hold where it keeps them.
func pairBudget(t *Table) int {
	n := 0
	for a := 0; a < t.NumCols(); a++ {
		for b := a + 1; b < t.NumCols(); b++ {
			n += t.DistinctCount(a) * t.DistinctCount(b)
		}
	}
	return n
}

// pairsMismatch holds t's pair masses to a brute scan of its rows and says
// where they differ, nil where they do not: nil masses where the grids would
// take more entries than t has rows or t has fewer than two columns; else
// every cell, read in either order of its columns, is the mass of the rows
// holding both values, and each grid row sums to the index's Mass of its
// value.
func pairsMismatch(t *Table) error {
	ix := t.Index()
	pm := ix.Pairs()
	if t.NumCols() < 2 || pairBudget(t) > t.NumRows() {
		if pm != nil {
			return fmt.Errorf("%d rows, %d grid entries: the table kept its pair masses", t.NumRows(), pairBudget(t))
		}
		return nil
	}
	if pm == nil {
		return fmt.Errorf("%d rows, %d grid entries: the table kept no pair masses", t.NumRows(), pairBudget(t))
	}
	if got, want := pm.Bytes(), 8*int64(pairBudget(t)); got != want {
		return fmt.Errorf("pair masses hold %d bytes, want %d", got, want)
	}
	for a := 0; a < t.NumCols(); a++ {
		for b := 0; b < t.NumCols(); b++ {
			if a == b {
				continue
			}
			da, db := t.DistinctCount(a), t.DistinctCount(b)
			brute := make([]int64, da*db)
			for i := 0; i < t.NumRows(); i++ {
				brute[int(t.Value(a, i))*db+int(t.Value(b, i))] += int64(t.Multiplicity(i))
			}
			for va := range da {
				var sum int64
				for vb := range db {
					got := pm.Mass(a, rule.Value(va), b, rule.Value(vb))
					if want := brute[va*db+vb]; got != want {
						return fmt.Errorf("columns %d, %d values %d, %d: mass %d, want %d", a, b, va, vb, got, want)
					}
					sum += got
				}
				if want := ix.Mass(a, rule.Value(va)); sum != want {
					return fmt.Errorf("column %d value %d: grid row over column %d sums to %d, want Mass %d", a, va, b, sum, want)
				}
			}
		}
	}
	return nil
}

// fuzzTable builds a random table of a few columns of a few values, the
// first one past a byte's 256 values where wide is set, so that its cells
// widen mid-load, grouped into its distinct tuples with their
// multiplicities where weighted is set.
func fuzzTable(rng *rand.Rand, cols uint8, rows uint16, vals uint8, wide, weighted bool) *Table {
	ncols, n, nv := 1+int(cols)%4, int(rows)%2000, 1+int(vals)%8
	names := make([]string, ncols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := MustBuilder(names, nil)
	row := make([]string, ncols)
	for i := 0; i < n; i++ {
		for c := range row {
			v := rng.Intn(nv)
			if wide && c == 0 {
				v = rng.Intn(300)
			}
			row[c] = fmt.Sprint(v)
		}
		b.MustAddRow(row)
	}
	tab := b.Build()
	if weighted && n > 0 {
		tab = tab.GroupRows(new(Tally), nil, n)
	}
	return tab
}

// FuzzPairStage builds a random table (fuzzTable) and holds its pair masses
// to a brute scan (pairsMismatch): a table over the grids' budget keeps
// none. The stage builds alone: no container, and the index bytes are the
// grids'.
func FuzzPairStage(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(500), uint8(4), false, false)
	f.Add(int64(2), uint8(1), uint16(1500), uint8(3), true, false)
	f.Add(int64(3), uint8(2), uint16(400), uint8(3), false, true)
	f.Add(int64(4), uint8(1), uint16(1800), uint8(0), true, true)
	f.Add(int64(4), uint8(1), uint16(1800), uint8(2), true, true)
	f.Add(int64(5), uint8(3), uint16(60), uint8(6), false, false)
	f.Add(int64(6), uint8(0), uint16(10), uint8(2), false, false)
	f.Fuzz(func(t *testing.T, seed int64, cols uint8, rows uint16, vals uint8, wide, weighted bool) {
		tab := fuzzTable(rand.New(rand.NewSource(seed)), cols, rows, vals, wide, weighted)
		if err := pairsMismatch(tab); err != nil {
			t.Fatal(err)
		}
		var grids int64
		if pm := tab.Index().Pairs(); pm != nil {
			grids = pm.Bytes()
		}
		if _, index := tab.ResidentBytes(); tab.Index().built.Load() || index != grids {
			t.Fatalf("the pair masses built the containers, or %d index bytes resident, want the grids' %d", index, grids)
		}
	})
}
