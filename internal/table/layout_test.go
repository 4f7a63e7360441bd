package table_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// TestLayoutBounds holds the resident table to what it promises, over
// random tables of 0 to 10⁵ rows (the word boundaries 63, 64, 65 among
// them) whose columns run from one value to seventy thousand, uniform and
// skewed: every column is stored at the narrowest width its dictionary
// fits; every value has exactly one index container, a bitset exactly when
// it is dense; a column's containers cost at most four bytes a row, plus a
// word of rounding and a summary — a 64th of the bitset's words, rounded up
// — for each of its at most 32 dense values; and the stored
// size, the decoded list, the bitset's count and a scan of the column agree
// on which rows hold the value. ResidentBytes adds the same bytes up once
// Warm has built the containers, and counts none before.
func TestLayoutBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// draw picks row i's value in a column of up to vals values: each in
	// turn while there are unseen ones (so a long enough column has exactly
	// vals), then uniformly, or — skewed — nine times in ten among the
	// first three.
	draw := func(vals int, skewed bool) func(i int) int {
		return func(i int) int {
			switch {
			case i < vals && !skewed:
				return i
			case skewed && rng.Intn(10) > 0:
				return rng.Intn(min(vals, 3))
			}
			return rng.Intn(vals)
		}
	}
	cards := []int{1, 2, 3, 40, 255, 256, 257, 5000, 65535, 65536, 65537, 70000}
	names := make([]string, 0, 2*len(cards))
	var cols []func(i int) int
	for _, vals := range cards {
		names = append(names, fmt.Sprintf("u%d", vals), fmt.Sprintf("s%d", vals))
		cols = append(cols, draw(vals, false), draw(vals, true))
	}
	for _, rows := range []int{0, 1, 63, 64, 65, 100000} {
		b := table.MustBuilder(names, nil)
		rec := make([]string, len(names))
		for i := 0; i < rows; i++ {
			for c := range rec {
				rec[c] = strconv.Itoa(cols[c](i))
			}
			b.MustAddRow(rec)
		}
		tab := b.Build()
		checkLayout(t, fmt.Sprintf("%d rows", rows), tab)
		// A selection keeps the dictionaries and the widths, and leaves
		// values with no row at all.
		half := make([]int, 0, rows/2)
		for i := 0; i < rows; i += 2 {
			half = append(half, i)
		}
		checkLayout(t, fmt.Sprintf("every other of %d rows", rows), tab.Select(half))
	}
}

func checkLayout(t *testing.T, label string, tab *table.Table) {
	t.Helper()
	rows, ix := tab.NumRows(), tab.Index()
	// The sizes and masses alone build no container, and ResidentBytes,
	// which builds nothing, counts none until Warm has built them.
	for c := 0; c < tab.NumCols(); c++ {
		ix.PostingsLen(c, 0)
		ix.Mass(c, 0)
	}
	if _, index := tab.ResidentBytes(); index != 0 {
		t.Errorf("%s: %d index bytes resident before the containers are built", label, index)
	}
	ix.Warm()
	var cells, index int64 // what ResidentBytes should add up to
	defer func() {
		if gotCells, gotIndex := tab.ResidentBytes(); gotCells != cells || gotIndex != index {
			t.Errorf("%s: ResidentBytes = %d cells, %d index, want %d and %d", label, gotCells, gotIndex, cells, index)
		}
	}()
	for c := 0; c < tab.NumCols(); c++ {
		label := fmt.Sprintf("%s, column %s", label, tab.ColumnNames()[c])
		vals := tab.DistinctCount(c)
		cellBytes, lists, bits := table.Layout(tab, c)
		narrowest := 4
		switch {
		case vals <= 1<<8:
			narrowest = 1
		case vals <= 1<<16:
			narrowest = 2
		}
		if cellBytes != narrowest {
			t.Errorf("%s: %d-byte cells for %d values, want %d-byte", label, cellBytes, vals, narrowest)
		}
		scan := make([][]int32, vals)
		for i := 0; i < rows; i++ {
			v := tab.Value(c, i)
			scan[v] = append(scan[v], int32(i))
		}
		if len(lists) != vals || len(bits) != vals {
			t.Fatalf("%s: %d lists and %d bitsets for %d values", label, len(lists), len(bits), vals)
		}
		bytes, dense := 0, 0
		for v := 0; v < vals; v++ {
			id, want := rule.Value(v), scan[v] // want nil: a value no row holds
			isDense := table.Dense(len(want), rows)
			if (lists[v] != nil) == (bits[v] != nil) {
				t.Fatalf("%s value %d: list %v and bitset %v, want exactly one container", label, v, lists[v] != nil, bits[v] != nil)
			}
			if (bits[v] != nil) != isDense {
				t.Fatalf("%s value %d: %d of %d rows, dense %v, but bitset %v", label, v, len(want), rows, isDense, bits[v] != nil)
			}
			if isDense {
				dense++
				bytes += int(bits[v].Bytes())
				if bm := ix.Bitmap(c, id); bm != bits[v] || bm.Len() != len(want) {
					t.Fatalf("%s value %d: Bitmap holds %d rows, want the container and %d", label, v, bm.Len(), len(want))
				}
			} else {
				bytes += 4 * len(lists[v])
				if ix.Bitmap(c, id) != nil {
					t.Fatalf("%s value %d: Bitmap of a sparse value", label, v)
				}
			}
			if n := ix.PostingsLen(c, id); n != len(want) {
				t.Fatalf("%s value %d: PostingsLen %d, scan %d", label, v, n, len(want))
			}
			if got := ix.Postings(c, id); !slices.Equal(got, want) {
				t.Fatalf("%s value %d: Postings %v, scan %v", label, v, got, want)
			}
		}
		cells += int64(rows * cellBytes)
		index += int64(bytes + 4*vals) // the containers, and a stored size a value
		if summary := 8 * (((rows+63)/64 + 63) / 64); dense > 32 || bytes > 4*rows+(8+summary)*dense {
			t.Errorf("%s: containers hold %d bytes (%d bitsets) for %d rows, want at most 4 a row and a word and a summary a bitset", label, bytes, dense, rows)
		}
		if ix.Postings(c, rule.Value(vals)) != nil || ix.PostingsLen(c, rule.Value(vals)) != 0 || ix.Bitmap(c, rule.Star) != nil {
			t.Errorf("%s: a value outside the dictionary has a container", label)
		}
	}
}
