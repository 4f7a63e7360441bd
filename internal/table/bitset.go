package table

import "math/bits"

// Packed bitset containers. A Bitset stores one (column, value) row set as
// row-membership bits in []uint64 words: bit (row % 64) of word (row / 64)
// is set iff the row holds the value. Dense sets answer intersections
// word-at-a-time — 64 rows per AND — and intersection *counts* by popcount
// alone, never touching rows, which is exactly what BRS candidate counting
// under the Count aggregate needs.
//
// A bitset is a dense value's only container, instead of a sorted []int32
// list, not beside one: the index stores a value as a bitset exactly when
// the bitmap (numRows/8 bytes) costs no more memory than the sorted list
// would (4 bytes per entry), i.e. when the value covers at least 1/32 of the
// table. Sparse values are sorted lists only: an intersection walk gallops
// through them and probes the bitsets of the dense ones, or, where every
// value is dense, ANDs their words (View.EachInAll); the cost planner picks
// the kernel per candidate.
//
// A bitset also knows its span: the words from its first non-zero one up to,
// not including, the word after its last. Outside the span every word is
// zero, so an AND of several bitsets needs only the words where all of their
// spans overlap, and reads — and books — only those. Grouped tables are laid
// out in tuple order (see GroupRows), which packs a value's rows, and so a
// rule's cover, into few words: there spans are narrow.

// Bitset is an immutable packed row set over a fixed universe [0, n).
// Safe for concurrent readers, like the posting lists of sparse values.
type Bitset struct {
	words  []uint64
	n      int // set bits
	lo, hi int // the span: words[lo:hi] holds every set bit; lo == hi when there is none
}

// newBitset makes words, holding n set bits, a Bitset, which then owns them.
// It is the one way to build one, so every bitset carries its span.
func newBitset(words []uint64, n int) *Bitset {
	lo, hi := 0, len(words)
	for hi > 0 && words[hi-1] == 0 {
		hi--
	}
	for lo < hi && words[lo] == 0 {
		lo++
	}
	return &Bitset{words: words, n: n, lo: lo, hi: hi}
}

// Dense reports whether a value held by length of a table's numRows
// rows is stored as a bitset: the bitmap's numRows/8 bytes must not exceed
// the 4·length bytes a sorted list would cost, i.e. length ≥ numRows/32.
func Dense(length, numRows int) bool {
	return length > 0 && 32*length >= numRows
}

// NewContainer returns the rows set in words — row r as bit r%64 of word
// r/64, over a universe of numRows rows, ⌈numRows/64⌉ words — in the one
// container the index gives a value holding that many: a Bitset over words
// itself where that is dense (see Dense), which then owns words; a
// fresh ascending list otherwise, never nil, even when empty, and words left
// as they were. A search keeps the rows a coverage walk visited this way, to
// intersect in place of the containers it walked.
func NewContainer(words []uint64, numRows int) (list []int32, set *Bitset) {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if Dense(n, numRows) {
		return nil, newBitset(words, n)
	}
	list = make([]int32, 0, n)
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			list = append(list, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return list, nil
}

// Len returns the number of set bits: the rows holding the value.
func (b *Bitset) Len() int { return b.n }

// NumWords returns the container's word count: ceil(universe / 64).
func (b *Bitset) NumWords() int { return len(b.words) }

// Contains reports whether row is set. Out-of-universe rows are not set.
func (b *Bitset) Contains(row int) bool {
	if row < 0 || row>>6 >= len(b.words) {
		return false
	}
	return b.words[row>>6]&(1<<(uint(row)&63)) != 0
}

// overlap returns the words where every set's span overlaps — outside them
// some set's word is zero, and so is the AND — and what reading them costs:
// len(sets) words per position. Empty when the spans are disjoint.
func overlap(sets []*Bitset) (lo, hi int, wordsRead int64) {
	if len(sets) == 0 {
		return 0, 0, 0
	}
	lo, hi = sets[0].lo, sets[0].hi
	for _, s := range sets[1:] {
		lo, hi = max(lo, s.lo), min(hi, s.hi)
	}
	if lo >= hi {
		return 0, 0, 0
	}
	return lo, hi, int64(len(sets)) * int64(hi-lo)
}

// AndCount returns the number of rows common to all sets — the
// intersection cardinality by word-at-a-time AND + popcount, no row
// enumerated — together with the words read (len(sets) per word position
// where their spans overlap, the I/O charged in place of posting entries).
// All sets must share one universe (containers of one Index always do).
// Zero sets yield zero.
func AndCount(sets []*Bitset) (count int, wordsRead int64) {
	lo, hi, wordsRead := overlap(sets)
	if lo == hi {
		return 0, 0
	}
	for i, w := range sets[0].words[lo:hi] {
		for _, s := range sets[1:] {
			w &= s.words[lo+i]
		}
		count += bits.OnesCount64(w)
	}
	return count, wordsRead
}

// AndEach calls fn(row, row) for every row common to all sets, in
// ascending row order — the order a scan or a posting-list walk visits
// them, so aggregate accumulation stays bit-identical across access paths
// — and returns the words read, as AndCount books them. fn has the shape
// of View.EachInAll's fn(pos, row): over the whole table, whose view
// position of a row is the row, one visitor serves both kernels. All sets
// must share one universe. Zero sets visit nothing.
func AndEach(sets []*Bitset, fn func(pos, row int)) (wordsRead int64) {
	lo, hi, wordsRead := overlap(sets)
	if lo == hi {
		return 0
	}
	for i, w := range sets[0].words[lo:hi] {
		for _, s := range sets[1:] {
			w &= s.words[lo+i]
		}
		base := (lo + i) << 6
		for w != 0 {
			row := base + bits.TrailingZeros64(w)
			fn(row, row)
			w &= w - 1
		}
	}
	return wordsRead
}
