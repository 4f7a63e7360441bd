package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"smartdrill/internal/rule"
)

// newBitsetFromSorted packs an ascending row list over universe [0, rows)
// into a bitset, the way the index's fill pass sets a dense value's bits.
func newBitsetFromSorted(list []int32, rows int) *Bitset {
	words := make([]uint64, (rows+63)/64)
	for _, r := range list {
		words[r>>6] |= 1 << (uint(r) & 63)
	}
	return newBitset(words, len(list))
}

// The bitmap kernel must agree with sorted-list intersection on every
// input, including the shapes where word-packing goes wrong: bits on both
// sides of a word boundary, universes that are not word multiples, empty
// and full containers, and single-word sets. The reference here is an
// independent naive intersection, not intersect.go's galloping walk, so
// the two production kernels are never checked against each other.

// naiveIntersect returns the ascending rows common to all lists.
func naiveIntersect(lists [][]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	counts := map[int32]int{}
	for _, l := range lists {
		for _, r := range l {
			counts[r]++
		}
	}
	var out []int32
	for r, c := range counts {
		if c == len(lists) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spanOf returns the span a bitset of an ascending list's rows has: the
// words from the one holding its first row to past the one holding its
// last, empty for an empty list.
func spanOf(list []int32) (lo, hi int) {
	if len(list) == 0 {
		return 0, 0
	}
	return int(list[0]) >> 6, int(list[len(list)-1])>>6 + 1
}

// wordsOf returns the words an ascending list's rows lie in: the non-zero
// words of its bitset, ascending.
func wordsOf(list []int32) []int {
	var out []int
	for _, r := range list {
		if w := int(r) >> 6; len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
	}
	return out
}

// summaryPays reports whether a bitset of an ascending list's rows keeps a
// summary: where reading it alone through one — the summary words over its
// span, then the words its rows lie in — reads fewer words than its span.
func summaryPays(list []int32) bool {
	lo, hi := spanOf(list)
	return lo < hi && (hi-1)/64-lo/64+1+len(wordsOf(list)) < hi-lo
}

// andWords is what the AND kernels book over the bitsets of lists, and
// spanOnly what they would book reading every word where all of their
// spans overlap: one word a set at each such position, none where two of
// them do not overlap at all. Where some sets keep a summary (summaryPays),
// and the summary words over that overlap and the fewest non-zero words of
// any of those are fewer than its positions, the kernels read instead each
// of those summary words of every set that keeps one and, a set, each data
// word in which every set that keeps one has a row.
func andWords(lists [][]int32) (words, spanOnly int64) {
	if len(lists) == 0 {
		return 0, 0
	}
	lo, hi, nz := 0, math.MaxInt, math.MaxInt
	var summarised [][]int32
	for _, l := range lists {
		a, b := spanOf(l)
		lo, hi = max(lo, a), min(hi, b)
		if summaryPays(l) {
			summarised = append(summarised, l)
			nz = min(nz, len(wordsOf(l)))
		}
	}
	if lo >= hi {
		return 0, 0
	}
	k := int64(len(lists))
	spanOnly = k * int64(hi-lo)
	summary := (hi-1)/64 - lo/64 + 1
	if len(summarised) == 0 || summary+nz >= hi-lo {
		return spanOnly, spanOnly
	}
	in := map[int]int{} // word → how many of summarised have a row in it
	for _, l := range summarised {
		for _, w := range wordsOf(l) {
			in[w]++
		}
	}
	marked := 0
	for w, n := range in {
		if n == len(summarised) && lo <= w && w < hi {
			marked++
		}
	}
	return int64(len(summarised)*summary) + k*int64(marked), spanOnly
}

// setsOf is bitsets as Sets, for the kernels that take them.
func setsOf(bitsets []*Bitset) []Set {
	sets := make([]Set, len(bitsets))
	for i, b := range bitsets {
		sets[i].bits = b
	}
	return sets
}

// requireSummary fails unless b counts its non-zero words and, where a
// summary pays (summaryPays), keeps one marking exactly them, and otherwise
// none.
func requireSummary(t *testing.T, label string, b *Bitset) {
	t.Helper()
	var rows []int32
	AndEach(new(Tally), []Set{{bits: b}}, func(row int) { rows = append(rows, int32(row)) })
	if nz := len(wordsOf(rows)); b.nz != nz {
		t.Fatalf("%s: %d non-zero words counted, want %d", label, b.nz, nz)
	}
	if !summaryPays(rows) {
		if b.summary != nil {
			t.Fatalf("%s: %d non-zero words spanning [%d, %d) keep a summary that does not pay", label, b.nz, b.lo, b.hi)
		}
		return
	}
	if len(b.summary) != (len(b.words)+63)/64 {
		t.Fatalf("%s: %d summary words, want %d", label, len(b.summary), (len(b.words)+63)/64)
	}
	for i, w := range b.words {
		if marked := b.summary[i>>6]&(1<<(uint(i)&63)) != 0; marked != (w != 0) {
			t.Fatalf("%s: word %d is %#x, yet its summary bit is %v", label, i, w, marked)
		}
	}
}

// randomRows returns the rows of [0, rows) a draw of rng.Intn(120) < d
// keeps, ascending and never nil — within one random sub-range of the
// universe when packed is set, so that the spans of sets drawn one after
// another nest, overlap in part or miss each other; and, when runs is set,
// only in runs of one to three words separated by up to three zero words,
// so that a set's summary marks a part of its span and an AND of several
// marks less.
func randomRows(rng *rand.Rand, rows, d int, packed, runs bool) []int32 {
	lo, hi := 0, rows
	if packed {
		lo = rng.Intn(rows)
		hi = lo + 1 + rng.Intn(rows-lo)
	}
	out := []int32{}
	left := 0 // words of the current run still to draw rows in
	for w := lo >> 6; w<<6 < hi; w++ {
		if runs {
			if left == 0 {
				w += rng.Intn(4)
				left = 1 + rng.Intn(3)
			}
			left--
		}
		for r := max(w<<6, lo); r < min(w<<6+64, hi); r++ {
			if rng.Intn(120) < d {
				out = append(out, int32(r))
			}
		}
	}
	return out
}

// checkKernels runs AndCount and AndEach over the packed lists and
// verifies count, visit order, visited rows, and words-read accounting
// against the naive reference.
func checkKernels(t *testing.T, label string, lists [][]int32, rows int) {
	t.Helper()
	sets := make([]*Bitset, len(lists))
	for i, l := range lists {
		sets[i] = newBitsetFromSorted(l, rows)
		if sets[i].Len() != len(l) {
			t.Fatalf("%s: set %d Len = %d, want %d", label, i, sets[i].Len(), len(l))
		}
		if lo, hi := spanOf(l); sets[i].lo != lo || sets[i].hi != hi {
			t.Fatalf("%s: set %d spans words [%d, %d), want [%d, %d)", label, i, sets[i].lo, sets[i].hi, lo, hi)
		}
		requireSummary(t, label, sets[i])
	}
	want := naiveIntersect(lists)
	wantWords, _ := andWords(lists)

	count, words := AndCount(sets)
	if count != len(want) {
		t.Fatalf("%s: AndCount = %d, want %d", label, count, len(want))
	}
	if words != wantWords {
		t.Fatalf("%s: AndCount words = %d, want %d", label, words, wantWords)
	}

	var got []int32
	var read Tally
	AndEach(&read, setsOf(sets), func(row int) {
		if row < 0 || row >= rows {
			t.Fatalf("%s: AndEach visited out-of-universe row %d (rows=%d)", label, row, rows)
		}
		got = append(got, int32(row))
	})
	if read != (Tally{Words: wantWords}) {
		t.Fatalf("%s: AndEach booked %+v, want %d words", label, read, wantWords)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: AndEach visited %d rows, want %d\ngot %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: AndEach row %d = %d, want %d (order must be ascending)", label, i, got[i], want[i])
		}
	}
}

func span(lo, hi int32) []int32 {
	var out []int32
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

func every(rows, step, phase int32) []int32 {
	var out []int32
	for r := phase; r < rows; r += step {
		out = append(out, r)
	}
	return out
}

// inWords returns three rows in each given word — its first, middle and
// last bit — ascending for ascending words.
func inWords(words ...int32) []int32 {
	var out []int32
	for _, w := range words {
		out = append(out, w<<6, w<<6+31, w<<6+63)
	}
	return out
}

// TestBitsetKernelsAdversarial pins the kernels on hand-built shapes that
// stress word packing: boundaries at 63/64 and 127/128, universes that
// are not multiples of 64, empty/full/alternating containers, and spans
// that nest, overlap in part or meet at a word boundary, and rows in a few
// words far apart, which the kernels find through the summaries: within
// one summary word and across two, with no word common to all sets, and
// where the summaries' bound only ties the span's, which is then read; and
// beside a set whose summary would not pay, which keeps none — one with no
// zero word in its span, also where its span bounds the overlap and the
// other set marks words outside it, and one with a few zero words, read as
// though they were not. An empty set has an empty span, so an AND with it
// reads nothing.
func TestBitsetKernelsAdversarial(t *testing.T) {
	cases := []struct {
		name  string
		rows  int
		lists [][]int32
	}{
		{"one-empty-set", 100, [][]int32{{}, span(0, 100)}},
		{"both-empty", 64, [][]int32{{}, {}}},
		{"single-set", 70, [][]int32{{0, 63, 64, 69}}},
		{"single-word-universe", 17, [][]int32{{0, 5, 16}, {5, 16}}},
		{"word-boundary-63-64", 128, [][]int32{{62, 63, 64, 65}, {63, 64}}},
		{"word-boundary-127-128", 200, [][]int32{{126, 127, 128, 129}, {127, 128, 199}}},
		{"last-bit-of-ragged-word", 100, [][]int32{{99}, {0, 99}}},
		{"all-dense", 150, [][]int32{span(0, 150), span(0, 150), span(0, 150)}},
		{"alternating-even-odd", 130, [][]int32{every(130, 2, 0), every(130, 2, 1)}},
		{"alternating-overlap", 130, [][]int32{every(130, 2, 0), every(130, 4, 0)}},
		{"disjoint-halves", 128, [][]int32{span(0, 64), span(64, 128)}},
		{"three-way", 129, [][]int32{every(129, 2, 0), every(129, 3, 0), every(129, 5, 0)}},
		{"sparse-vs-dense", 256, [][]int32{{1, 64, 128, 255}, span(0, 256)}},
		{"nested-spans", 640, [][]int32{span(0, 640), span(130, 300), span(200, 210)}},
		{"partial-spans", 640, [][]int32{span(0, 400), span(250, 640)}},
		{"spans-share-one-word", 640, [][]int32{span(0, 130), span(129, 640)}},
		{"summary-one-set", 10000, [][]int32{inWords(3, 70, 150)}},
		{"summary-no-common-word", 10000, [][]int32{inWords(3, 70, 150), inWords(4, 71, 149)}},
		{"summary-across-summary-words", 10000, [][]int32{inWords(63, 64, 127, 128), inWords(63, 128), inWords(0, 63, 100, 128, 155)}},
		{"summary-ragged-last-word", 8200, [][]int32{inWords(1, 128), {64, 8199}}},
		{"summary-bound-ties-span", 640, [][]int32{inWords(0, 2, 4, 6, 8), inWords(0, 9)}},
		{"summary-beside-no-summary", 10000, [][]int32{inWords(3, 70, 150), span(0, 10000)}},
		{"no-summary-bounds-overlap", 10000, [][]int32{span(640, 1280), inWords(2, 12, 15, 40)}},
		{"no-summary-with-zero-words", 10000, [][]int32{inWords(10, 12, 13, 14, 15, 16, 17, 18, 19, 20), inWords(11, 15, 60)}},
	}
	for _, tc := range cases {
		checkKernels(t, tc.name, tc.lists, tc.rows)
	}

	// Zero sets: both kernels are defined to do nothing.
	if c, w := AndCount(nil); c != 0 || w != 0 {
		t.Fatalf("AndCount(nil) = (%d, %d), want (0, 0)", c, w)
	}
	var read Tally
	if AndEach(&read, nil, func(int) { t.Fatal("AndEach(nil) visited a row") }); read != (Tally{}) {
		t.Fatalf("AndEach(nil) booked %+v, want nothing", read)
	}
}

// TestBitsetDisjointSpans: two bitsets whose rows lie in words that do not
// overlap have nothing in common, and an AND of them finds that out
// without reading a word.
func TestBitsetDisjointSpans(t *testing.T) {
	a := newBitsetFromSorted(span(0, 100), 1000)
	b := newBitsetFromSorted(span(500, 600), 1000)
	if a.lo != 0 || a.hi != 2 || b.lo != 7 || b.hi != 10 {
		t.Fatalf("spans [%d, %d) and [%d, %d), want [0, 2) and [7, 10)", a.lo, a.hi, b.lo, b.hi)
	}
	for _, sets := range [][]*Bitset{{a, b}, {b, a}} {
		if c, w := AndCount(sets); c != 0 || w != 0 {
			t.Fatalf("AndCount = (%d, %d), want (0, 0)", c, w)
		}
		var read Tally
		if AndEach(&read, setsOf(sets), func(row int) { t.Fatalf("AndEach visited row %d", row) }); read != (Tally{}) {
			t.Fatalf("AndEach booked %+v, want nothing", read)
		}
	}
}

// TestBitsetContains covers membership including out-of-universe probes.
func TestBitsetContains(t *testing.T) {
	b := newBitsetFromSorted([]int32{0, 63, 64, 99}, 100)
	if len(b.words) != 2 {
		t.Fatalf("%d words, want 2 for 100 rows", len(b.words))
	}
	for _, r := range []int{0, 63, 64, 99} {
		if !b.Contains(r) {
			t.Fatalf("Contains(%d) = false, want true", r)
		}
	}
	for _, r := range []int{-1, 1, 62, 65, 98, 128, 1 << 20} {
		if b.Contains(r) {
			t.Fatalf("Contains(%d) = true, want false", r)
		}
	}
}

// TestBitsetDense pins the container-eligibility rule: a bitmap is built
// only when its numRows/8 bytes cost no more than the sorted list's
// 4·length bytes.
func TestBitsetDense(t *testing.T) {
	cases := []struct {
		length, rows int
		want         bool
	}{
		{0, 100, false}, // empty lists never get containers
		{1, 32, true},   // exactly 1/32 of the table
		{1, 33, false},  // just under
		{100, 3200, true},
		{99, 3200, false},
		{5, 5, true}, // tiny universe: everything is dense
	}
	for _, tc := range cases {
		if got := dense(tc.length, tc.rows); got != tc.want {
			t.Fatalf("dense(%d, %d) = %v, want %v", tc.length, tc.rows, got, tc.want)
		}
	}
}

// TestBitsetMatchesIndexPostings cross-checks the index-built containers:
// for every dense (column, value) the bitmap holds exactly the sorted
// posting list's rows, and its summary marks its non-zero words, and sparse
// values get no container. The index's rule is memory (see dense), which a
// search's covers do not follow (see Keeper).
func TestBitsetMatchesIndexPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"A", "B"}
	b := MustBuilder(names, nil)
	row := make([]string, 2)
	for i := 0; i < 500; i++ {
		// Column A is skewed: value "a" dominates, the tail is sparse.
		if rng.Intn(100) < 90 {
			row[0] = "a"
		} else {
			row[0] = string(rune('b' + rng.Intn(20)))
		}
		row[1] = string(rune('a' + rng.Intn(3)))
		b.MustAddRow(row)
	}
	tab := b.Build()
	ix := tab.Index()
	ix.Warm()
	for c := 0; c < tab.NumCols(); c++ {
		for v := 0; v < tab.DistinctCount(c); v++ {
			list := ix.Postings(c, rule.Value(v))
			bm := ix.Bitmap(c, rule.Value(v))
			if !dense(len(list), tab.NumRows()) {
				if bm != nil {
					t.Fatalf("col %d val %d: sparse list (len %d) has a container", c, v, len(list))
				}
				continue
			}
			if bm == nil {
				t.Fatalf("col %d val %d: dense list (len %d of %d) has no container", c, v, len(list), tab.NumRows())
			}
			if bm.Len() != len(list) {
				t.Fatalf("col %d val %d: bitmap Len %d != list len %d", c, v, bm.Len(), len(list))
			}
			requireSummary(t, fmt.Sprintf("col %d val %d", c, v), bm)
			for _, r := range list {
				if !bm.Contains(int(r)) {
					t.Fatalf("col %d val %d: row %d in list but not bitmap", c, v, r)
				}
			}
		}
	}
}

// FuzzBitsetIntersect feeds the kernels randomized list shapes — sizes,
// densities, and universes derived from the fuzz input — and checks both,
// and the words they book, against the naive reference. Bit 0x40 of nsets
// packs each set's rows into a random sub-range of the universe, so that
// spans nest, overlap in part or miss each other; bit 0x20 packs them into
// runs of words with zero words between them, so that the summaries mark
// part of each span: every set's summary must mark exactly its non-zero
// words, the rows visited must not change, and the words booked must be
// andWords' and never more than the spans' overlap alone would book. The
// top bit also runs the intersection walk over the same bitsets and nothing
// else, the way it gets a rule whose every value is dense: the driver's
// rows are its set bits, and the walk must visit what AndEach visits
// without reading an entry, reading the words that reading the driver
// alone reads and one word a probe.
func FuzzBitsetIntersect(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(3), uint8(50))
	f.Add(int64(2), uint16(64), uint8(1), uint8(100))
	f.Add(int64(3), uint16(65), uint8(4), uint8(1))
	f.Add(int64(4), uint16(1), uint8(2), uint8(100))
	f.Add(int64(5), uint16(4096), uint8(5), uint8(10))
	f.Add(int64(6), uint16(129), uint8(0x80|3), uint8(50))
	f.Add(int64(7), uint16(4096), uint8(0x80|5), uint8(100))
	f.Add(int64(8), uint16(64), uint8(0x80), uint8(1))
	f.Add(int64(9), uint16(4096), uint8(0x40|3), uint8(60))
	f.Add(int64(10), uint16(1000), uint8(0x80|0x40|4), uint8(100))
	f.Add(int64(11), uint16(4999), uint8(0x20|2), uint8(40))
	f.Add(int64(12), uint16(4999), uint8(0x80|0x20|3), uint8(100))
	f.Add(int64(13), uint16(4096), uint8(0x40|0x20|1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rows16 uint16, nsets uint8, density uint8) {
		rows := int(rows16)%5000 + 1
		k := int(nsets&0x1f)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		lists := make([][]int32, k)
		for i := range lists {
			lists[i] = randomRows(rng, rows, int(density)%101+rng.Intn(20), nsets&0x40 != 0, nsets&0x20 != 0) // per-set density jitter
		}
		sets := make([]*Bitset, k)
		for i, l := range lists {
			sets[i] = newBitsetFromSorted(l, rows)
			requireSummary(t, fmt.Sprintf("set %d", i), sets[i])
		}
		want := naiveIntersect(lists)
		wantWords, spanOnly := andWords(lists)
		if wantWords > spanOnly {
			t.Fatalf("the model books %d words, more than the %d of the spans' overlap", wantWords, spanOnly)
		}
		count, words := AndCount(sets)
		if count != len(want) || words != wantWords {
			t.Fatalf("AndCount = %d reading %d words, want %d reading %d (rows=%d k=%d)", count, words, len(want), wantWords, rows, k)
		}
		// What the planner prices the kernels at: the most they book, and,
		// of one set, exactly what reading it alone books.
		if bound := AndWords(setsOf(sets)); words > bound || (k == 1 && words != bound) {
			t.Fatalf("AndWords = %d, but the kernels booked %d (rows=%d k=%d)", bound, words, rows, k)
		}
		var got []int32
		var read Tally
		if AndEach(&read, setsOf(sets), func(row int) { got = append(got, int32(row)) }); read != (Tally{Words: wantWords}) {
			t.Fatalf("AndEach booked %+v, want %d words", read, wantWords)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("AndEach visited %v, want %v", got, want)
		}
		if nsets&0x80 == 0 {
			return
		}
		var walked []int32
		var walkRead Tally
		EachInAll(&walkRead, setsOf(sets), func(row int) { walked = append(walked, int32(row)) })
		if walkRead.Entries != 0 || !slices.Equal(walked, want) {
			t.Fatalf("walk over bitsets alone booked %d entries and visited %d rows, want none and the %d of AndEach (rows=%d k=%d)", walkRead.Entries, len(walked), len(want), rows, k)
		}
		if wantWords := walkWords(lists); walkRead != (Tally{Words: wantWords}) {
			t.Fatalf("walk over bitsets alone booked %+v, want %d words (rows=%d k=%d)", walkRead, wantWords, rows, k)
		}
	})
}

// walkWords is what a walk over the bitsets of lists, and nothing
// else, books: what reading the driver alone books (andWords of it) — the
// smallest set, the first given of equals — then, for each of its rows, one
// word for each other set probed, smallest first, up to and including the
// first that lacks the row.
func walkWords(lists [][]int32) int64 {
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(lists[order[a]]) < len(lists[order[b]]) })
	driver := lists[order[0]]
	if len(driver) == 0 {
		return 0
	}
	words, _ := andWords([][]int32{driver})
	for _, r := range driver {
		for _, i := range order[1:] {
			words++
			if _, ok := slices.BinarySearch(lists[i], r); !ok {
				break
			}
		}
	}
	return words
}
