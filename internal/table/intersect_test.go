package table

import (
	"math/rand"
	"slices"
	"testing"

	"smartdrill/internal/rule"
)

func TestViewAscending(t *testing.T) {
	b := MustBuilder([]string{"A"}, nil)
	for i := 0; i < 10; i++ {
		b.MustAddRow([]string{"x"})
	}
	tab := b.Build()
	cases := []struct {
		rows []int
		want bool
	}{
		{nil, true}, // full table
		{[]int{}, true},
		{[]int{3}, true},
		{[]int{0, 2, 5, 9}, true},
		{[]int{0, 2, 2}, false}, // duplicate: a multiset, not a set
		{[]int{5, 3}, false},
	}
	for _, c := range cases {
		v := tab.All()
		if c.rows != nil {
			v = tab.ViewOf(c.rows)
		}
		if got := v.Ascending(); got != c.want {
			t.Errorf("Ascending(%v) = %v, want %v", c.rows, got, c.want)
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
// reference over random tables, rules, and view subsets — full-table and
// explicit ascending views, one to three posting lists, with and without
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
		ix := tab.Index()

		// Random rule over a random subset of columns.
		r := rule.Trivial(cols)
		var lists [][]int32
		var bits []*Bitset
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 0 {
				r[c] = rule.Value(rng.Intn(tab.DistinctCount(c)))
				lists = append(lists, ix.Postings(c, r[c]))
				bits = append(bits, ix.Bitmap(c, r[c]))
			}
		}
		if trial%2 == 0 {
			bits = nil // all-gallop
		}
		if len(lists) == 0 {
			continue
		}

		// Random ascending view (sometimes the full table).
		v := tab.All()
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
			v = tab.ViewOf(rows)
		}

		var gotPos, gotRow []int
		v.EachInAll(lists, func(pos, row int) {
			gotPos = append(gotPos, pos)
			gotRow = append(gotRow, row)
		}, bits...)

		var wantPos, wantRow []int
		for i := 0; i < v.NumRows(); i++ {
			if v.Covers(r, i) {
				wantPos = append(wantPos, i)
				wantRow = append(wantRow, v.ParentRow(i))
			}
		}
		if len(gotPos) != len(wantPos) {
			t.Fatalf("trial %d: %d matches, want %d (rule %v)", trial, len(gotPos), len(wantPos), r)
		}
		for i := range wantPos {
			if gotPos[i] != wantPos[i] || gotRow[i] != wantRow[i] {
				t.Fatalf("trial %d: match %d = (%d,%d), want (%d,%d)",
					trial, i, gotPos[i], gotRow[i], wantPos[i], wantRow[i])
			}
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
// an arbitrary subset of them shadowed by bitsets, over the full table and
// over a sub-view. Whatever is probed and whatever is galloped, the walk
// must visit the rows — in the order, at the positions — that the
// all-gallop walk and a naive set intersection do, and when every list
// has a bitset it may read no more than one unit per driver entry per list.
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
		bits := make([]*Bitset, k)
		shadowed := 0
		for i := range lists {
			lists[i] = randomRows(rng, rows, int(density)%101+rng.Intn(20), nlists&0x80 != 0, nlists&0x40 != 0)
			if shadow&(1<<i) != 0 {
				bits[i] = newBitsetFromSorted(lists[i], rows)
				shadowed++
			}
		}
		// keep = 0: the full table; otherwise a sub-view that drops about one
		// row in keep+1.
		v := (&Table{n: rows}).All()
		inView := func(r int32) (int, bool) { return int(r), true }
		if keep != 0 {
			pos := map[int32]int{}
			vrows := []int{}
			for r := 0; r < rows; r++ {
				if rng.Intn(int(keep)+1) != 0 {
					pos[int32(r)] = len(vrows)
					vrows = append(vrows, r)
				}
			}
			v = v.t.ViewOf(vrows)
			inView = func(r int32) (int, bool) { p, ok := pos[r]; return p, ok }
		}

		type visit struct{ pos, row int }
		var want []visit
		for _, r := range naiveIntersect(lists) {
			if p, ok := inView(r); ok {
				want = append(want, visit{p, int(r)})
			}
		}
		walk := func(lists [][]int32, bits []*Bitset) (got []visit, entries, words int64) {
			entries, words = v.EachInAll(lists, func(pos, row int) { got = append(got, visit{pos, row}) }, bits...)
			return got, entries, words
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
		walks := map[string][]visit{"all-gallop": gallop, "probing": probed}
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
			if k == 1 && keep == 0 && denseWords != driverWords {
				t.Fatalf("dense driver alone over the full table: read %d words, want the %d of reading it alone", denseWords, driverWords)
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
					t.Fatalf("%s walk visit %d = %+v, want %+v", name, i, got[i], want[i])
				}
			}
		}
	})
}
