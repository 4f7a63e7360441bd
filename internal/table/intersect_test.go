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
// search of that view reads — one to three sets, as the index keeps them or
// every one as a list.
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
		var sets []Set
		for _, c := range r.InstantiatedColumns() {
			s := ix.Container(c, r[c])
			if allGallop {
				s = Set{list: s.rows()}
			}
			sets = append(sets, s)
		}

		var got []int
		EachInAll(new(Tally), sets, func(row int) { got = append(got, row) })

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

// FuzzEachInAll drives the intersection walk with random ascending row
// sets, each passed as a list or as a bitset holding the same rows, over
// the full universe or over a copy of a sub-view of it: the rows keep drops
// numbered afresh, the containers a search of that sub-view reads. Bit i
// of shadow passes set i as a bitset. Whatever mix of lists and bitsets it
// gets — the shadow's, every set a list, every set a bitset — the walk
// must visit exactly the rows, in order, of a naive set intersection, and
// read no more than its driver (the smallest set, the first given of
// equals) and one unit per driver row per other bitset, with every list
// entry read at most once: a list driver an entry a row, a bitset driver
// the words that reading it alone reads — its span's, or its summary's and
// its non-zero words where those are fewer (andWords), never more than its
// span holds. A walk over bitsets alone reads no entry. The top bit of
// nlists packs each set's rows into a random sub-range of the universe, so
// that the spans of the bitsets nest, overlap in part or miss each other;
// bit 0x40 packs them into runs of words with zero words between them, so
// that the driver's summary marks part of its span.
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
		want := naiveIntersect(lists)
		smallest := 0
		for i, l := range lists {
			if len(l) < len(lists[smallest]) {
				smallest = i
			}
		}
		shortest := int64(len(lists[smallest]))
		driverWords, spanWords := andWords([][]int32{lists[smallest]})
		if driverWords > spanWords {
			t.Fatalf("the model reads the driver in %d words, more than the %d of its span", driverWords, spanWords)
		}
		// walk passes set i as a bitset where asBits(i), as a list otherwise.
		walk := func(name string, asBits func(i int) bool) Tally {
			sets := make([]Set, k)
			var listEntries, probes int64 // entries of the non-driver lists, non-driver bitsets
			for i, l := range lists {
				switch {
				case asBits(i):
					sets[i].bits = newBitsetFromSorted(l, rows)
					if i != smallest {
						probes++
					}
				default:
					sets[i].list = l
					if i != smallest {
						listEntries += int64(len(l))
					}
				}
			}
			var got []int32
			var read Tally
			EachInAll(&read, sets, func(row int) { got = append(got, int32(row)) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s walk visited %v, want %v (rows=%d k=%d shadow=%b keep=%d)", name, got, want, rows, k, shadow, keep)
			}
			driver := shortest // a list driver: an entry a row
			if asBits(smallest) {
				driver = 0
				if limit := driverWords + shortest*probes; read.Words > limit || (k == 1 && read.Words != driverWords) {
					t.Fatalf("%s walk, bitset driver: read %d words, want at most the %d of reading it alone and %d rows × %d other bitsets", name, read.Words, driverWords, shortest, probes)
				}
			} else if read.Words > shortest*probes {
				t.Fatalf("%s walk, list driver: read %d words, more than %d rows × %d other bitsets", name, read.Words, shortest, probes)
			}
			if read.Entries < driver || read.Entries > driver+listEntries {
				t.Fatalf("%s walk: read %d entries, want the driver's %d and at most the %d of the other lists", name, read.Entries, driver, listEntries)
			}
			if read.Rows != 0 {
				t.Fatalf("%s walk booked %d rows", name, read.Rows)
			}
			return read
		}
		walk("shadowed", func(i int) bool { return shadow&(1<<i) != 0 })
		if read := walk("all-list", func(int) bool { return false }); read.Words != 0 {
			t.Fatalf("all-list walk read %d bitset words", read.Words)
		}
		if read := walk("all-bitset", func(int) bool { return true }); read.Entries != 0 {
			t.Fatalf("all-bitset walk read %d entries", read.Entries)
		}
	})
}
