package table

import (
	"math/rand"
	"slices"
	"testing"

	"smartdrill/internal/rule"
)

// TestViewSelect: a view copied into a table of its own keeps its rows in
// view order — duplicates and all — with their measures and
// multiplicities, and books the view rows it read; the whole table, not
// narrowed, is its own table and reads nothing; a rule narrows the copy to
// the rows it covers, having read every view row.
func TestViewSelect(t *testing.T) {
	b := MustBuilder([]string{"A"}, []string{"M"})
	for i := 0; i < 10; i++ {
		b.MustAddRow([]string{string(rune('a' + i%3))}, float64(i))
	}
	tab := b.Build()
	a := rule.Rule{0}
	cases := []struct {
		rows   []int
		r      rule.Rule
		want   []int // tab's rows the copy holds, in order; nil: tab itself
		wantRd int
	}{
		{nil, nil, nil, 0}, // full table
		{nil, a, []int{0, 3, 6, 9}, 10},
		{[]int{}, nil, []int{}, 0},
		{[]int{3}, nil, []int{3}, 1},
		{[]int{0, 2, 5, 9}, nil, []int{0, 2, 5, 9}, 4},
		{[]int{0, 2, 2}, nil, []int{0, 2, 2}, 3}, // duplicate: a multiset, not a set
		{[]int{5, 3}, nil, []int{5, 3}, 2},
		{[]int{9, 1, 3, 3}, a, []int{9, 3, 3}, 4},
	}
	for _, c := range cases {
		v := tab.All()
		if c.rows != nil {
			v = tab.ViewOf(c.rows)
		}
		var read Tally
		got := v.Select(&read, c.r)
		if read != (Tally{Rows: int64(c.wantRd)}) {
			t.Errorf("Select(%v) of %v booked %+v, want %d rows", c.r, c.rows, read, c.wantRd)
		}
		if c.want == nil {
			if got != tab {
				t.Errorf("Select(%v) of the whole table copied it", c.r)
			}
			continue
		}
		if got == tab || got.NumRows() != len(c.want) {
			t.Fatalf("Select(%v) of %v: %d rows, want a copy of %v", c.r, c.rows, got.NumRows(), c.want)
		}
		for i, row := range c.want {
			if got.Value(0, i) != tab.Value(0, row) || got.Measure(0)[i] != tab.Measure(0)[row] {
				t.Errorf("Select(%v) of %v: row %d is not tab's row %d", c.r, c.rows, i, row)
			}
		}
	}
	// A distinct-tuple table's rows keep their multiplicities.
	d := tab.GroupRows(new(Tally), nil, 3)
	if d == nil {
		t.Fatal("ten rows of three tuples did not group")
	}
	got := d.ViewOf([]int{2, 0, 2}).Select(new(Tally), nil)
	for i, row := range []int{2, 0, 2} {
		if got.Multiplicity(i) != d.Multiplicity(row) || got.Value(0, i) != d.Value(0, row) {
			t.Errorf("weighted copy row %d: multiplicity %d, want tuple %d's %d", i, got.Multiplicity(i), row, d.Multiplicity(row))
		}
	}
}

func TestPostingsLen(t *testing.T) {
	b := MustBuilder([]string{"A", "B"}, nil)
	b.MustAddRow([]string{"x", "p"})
	b.MustAddRow([]string{"y", "p"})
	b.MustAddRow([]string{"x", "q"})
	tab := b.Build()
	if n := tab.Index().PostingsLen(0, 0); n != 2 {
		t.Fatalf("PostingsLen(A,x) = %d, want 2", n)
	}
}

// TestEachInAll cross-checks the intersection walk against a naive
// reference over random tables and rules — over the table's own containers,
// or over those of a copy of a random sub-view (View.Select), the table a
// search of that view reads — one to three posting lists, with and without
// the index's bitsets to probe.
func TestEachInAll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(3)
		names := make([]string, cols)
		for c := range names {
			names[c] = string(rune('A' + c))
		}
		b := MustBuilder(names, nil)
		n := 1 + rng.Intn(400)
		row := make([]string, cols)
		for i := 0; i < n; i++ {
			for c := range row {
				row[c] = string(rune('a' + rng.Intn(1+rng.Intn(6))))
			}
			b.MustAddRow(row)
		}
		tab := b.Build()

		// Random rule over a random subset of columns.
		r := rule.Trivial(cols)
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 0 {
				r[c] = rule.Value(rng.Intn(tab.DistinctCount(c)))
			}
		}
		allGallop := trial%2 == 0
		if r.IsTrivial() {
			continue
		}

		// Random ascending sub-view, copied (sometimes the full table).
		if rng.Intn(2) == 0 {
			var rows []int
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					rows = append(rows, i)
				}
			}
			if rows == nil {
				rows = []int{}
			}
			tab = tab.ViewOf(rows).Select(new(Tally), nil)
		}
		ix := tab.Index()
		var lists [][]int32
		var bits []*Bitset
		for _, c := range r.InstantiatedColumns() {
			lists = append(lists, ix.Postings(c, r[c]))
			if !allGallop {
				bits = append(bits, ix.Bitmap(c, r[c]))
			}
		}

		var got []int
		EachInAll(new(Tally), lists, func(row int) { got = append(got, row) }, bits...)

		var want []int
		for i := 0; i < tab.NumRows(); i++ {
			if tab.Covers(r, i) {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: visited %v, want %v (rule %v)", trial, got, want, r)
		}
	}
}

func TestGallop(t *testing.T) {
	a := []int32{2, 4, 4, 8, 16, 32, 33}
	for target := int32(0); target < 40; target++ {
		for from := 0; from <= len(a); from++ {
			got := gallop(a, from, target)
			want := from
			for want < len(a) && a[want] < target {
				want++
			}
			if got != want {
				t.Fatalf("gallop(from=%d, target=%d) = %d, want %d", from, target, got, want)
			}
		}
	}
}

// FuzzEachInAll drives the intersection walk with random ascending lists,
// an arbitrary subset of them shadowed by bitsets, over the full universe
// or over a copy of a sub-view of it: the rows keep drops numbered afresh,
// the containers a search of that sub-view reads. Whatever is probed and
// whatever is galloped, the walk must visit the rows — in order — that the
// all-gallop walk and a naive set intersection do, and when every list has
// a bitset it may read no more than one unit per driver entry per list.
// The top bit of shadow hands the smallest set over the way the index hands
// over a dense value — its bitset and no list — so that the walk takes the
// driver's rows from set bits, not entries: the same visits, no entry read
// for the driver, and no more words for it than reading it alone reads —
// its span's, or its summary's and its non-zero words where those are fewer
// (andWords) — which is never more than its span holds. The top bit of
// nlists packs each list's rows into a random sub-range of the universe,
// so that the spans of the bitsets nest, overlap in part or miss each
// other; bit 0x40 packs them into runs of words with zero words between
// them, so that the driver's summary marks part of its span.
func FuzzEachInAll(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(50), uint8(0xff), uint8(0))
	f.Add(int64(2), uint16(64), uint8(1), uint8(100), uint8(1), uint8(2))
	f.Add(int64(3), uint16(129), uint8(4), uint8(5), uint8(0b0101), uint8(3))
	f.Add(int64(4), uint16(4096), uint8(5), uint8(90), uint8(0b11110), uint8(0))
	f.Add(int64(5), uint16(1), uint8(2), uint8(100), uint8(0), uint8(1))
	f.Add(int64(6), uint16(1000), uint8(3), uint8(60), uint8(0xff), uint8(2))
	f.Add(int64(7), uint16(129), uint8(2), uint8(90), uint8(0x80), uint8(0))
	f.Add(int64(8), uint16(4096), uint8(4), uint8(20), uint8(0x8a), uint8(5))
	f.Add(int64(9), uint16(4096), uint8(0x80|3), uint8(70), uint8(0xff), uint8(0))
	f.Add(int64(10), uint16(2000), uint8(0x80|4), uint8(90), uint8(0x85), uint8(3))
	f.Add(int64(11), uint16(4999), uint8(0x40|1), uint8(30), uint8(0x80), uint8(0))
	f.Add(int64(12), uint16(4999), uint8(0x40|3), uint8(90), uint8(0x83), uint8(0))
	f.Add(int64(13), uint16(4096), uint8(0x80|0x40|4), uint8(60), uint8(0x8f), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, rows16 uint16, nlists, density, shadow, keep uint8) {
		rows := int(rows16)%5000 + 1
		k := int(nlists&0x3f)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = randomRows(rng, rows, int(density)%101+rng.Intn(20), nlists&0x80 != 0, nlists&0x40 != 0)
		}
		// keep = 0: the full universe; otherwise a sub-view that drops about
		// one row in keep+1, copied: its rows numbered from 0 in order.
		if keep != 0 {
			at := make([]int32, rows) // a kept row's number in the copy; −1 dropped
			kept := 0
			for r := range at {
				at[r] = -1
				if rng.Intn(int(keep)+1) != 0 {
					at[r] = int32(kept)
					kept++
				}
			}
			for i, list := range lists {
				copied := []int32{}
				for _, r := range list {
					if at[r] >= 0 {
						copied = append(copied, at[r])
					}
				}
				lists[i] = copied
			}
			rows = kept
		}
		bits := make([]*Bitset, k)
		shadowed := 0
		for i := range lists {
			if shadow&(1<<i) != 0 {
				bits[i] = newBitsetFromSorted(lists[i], rows)
				shadowed++
			}
		}

		want := naiveIntersect(lists)
		walk := func(lists [][]int32, bits []*Bitset) (got []int32, entries, words int64) {
			var read Tally
			EachInAll(&read, lists, func(row int) { got = append(got, int32(row)) }, bits...)
			if read.Rows != 0 {
				t.Fatalf("the walk booked %d rows", read.Rows)
			}
			return got, read.Entries, read.Words
		}
		smallest := 0
		for i, l := range lists {
			if len(l) < len(lists[smallest]) {
				smallest = i
			}
		}
		shortest := len(lists[smallest])
		gallop, _, gallopWords := walk(lists, nil)
		probed, entries, words := walk(lists, bits)
		walks := map[string][]int32{"all-gallop": gallop, "probing": probed}
		if shadow&0x80 != 0 {
			denseLists, denseBits := slices.Clone(lists), slices.Clone(bits)
			denseLists[smallest], denseBits[smallest] = nil, newBitsetFromSorted(lists[smallest], rows)
			dense, denseEntries, denseWords := walk(denseLists, denseBits)
			walks["dense-driver"] = dense
			others := shadowed
			if bits[smallest] != nil {
				others--
			}
			driverWords, spanWords := andWords([][]int32{lists[smallest]})
			if driverWords > spanWords {
				t.Fatalf("the model reads the driver in %d words, more than the %d of its span", driverWords, spanWords)
			}
			if limit := driverWords + int64(shortest)*int64(others); denseWords > limit {
				t.Fatalf("dense driver: read %d words, more than the %d of reading it alone and %d rows × %d other bitsets", denseWords, driverWords, shortest, others)
			}
			if k == 1 && denseWords != driverWords {
				t.Fatalf("dense driver alone: read %d words, want the %d of reading it alone", denseWords, driverWords)
			}
			if others == k-1 && denseEntries != 0 {
				t.Fatalf("dense driver, every other set a bitset, yet read %d entries", denseEntries)
			}
		}
		if gallopWords != 0 {
			t.Fatalf("all-gallop walk read %d bitset words", gallopWords)
		}
		if words > int64(shortest)*int64(k-1) {
			t.Fatalf("probed %d words, more than %d driver entries × %d other lists", words, shortest, k-1)
		}
		if shadowed == k && entries+words > int64(shortest)*int64(k) {
			t.Fatalf("every list has a bitset, yet read %d entries + %d words > %d × %d", entries, words, shortest, k)
		}
		for name, got := range walks {
			if len(got) != len(want) {
				t.Fatalf("%s walk visited %d rows, want %d (rows=%d k=%d shadow=%b keep=%d)", name, len(got), len(want), rows, k, shadow, keep)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s walk visit %d = %d, want %d", name, i, got[i], want[i])
				}
			}
		}
	})
}
