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
// table (Dense). Sparse values are sorted lists only: an intersection walk
// gallops through them and probes the bitsets of the dense ones
// (EachInAll), or, where every value is dense, the AND kernels read
// their words; the cost planner picks the kernel per candidate. The rows a
// search keeps of a walk are another matter: they live for one search, and
// are kept in whichever container reads them in fewer words (NewContainer).
//
// A bitset also knows where its rows are, at two levels. Its span is the
// words from its first non-zero one up to, not including, the word after
// its last: outside it every word is zero, so an AND of several bitsets
// needs only the words where all of their spans overlap. Its summary holds
// one bit a data word, set where that word is non-zero, in 1/64 of the
// words: ANDing the sets' summaries over the overlap marks the only words
// the AND can hold a row in, which is how Roaring bitmaps skip empty chunks
// (Chambi, Lemire, Kaser & Godin, Softw. Pract. Exper. 2016). A bitset
// keeps a summary only where reading it alone through the summary — the
// summary words over its span, then its non-zero words — reads fewer words
// than its span (see hasSummary); one with few zero words in its span keeps
// none, and counts in an AND as though every word of its span were
// non-zero. The kernels read — and book — the span's words, or the
// summaries' words and the data words every summary marks, whichever cannot
// read more (see overlap). Grouped tables are laid out in tuple order (see
// GroupRows), which packs a value's rows, and so a rule's cover, into runs
// of words with zero words between them: there spans are narrow and
// summaries sparse. On a table in no such order a dense value has few zero
// words or none, so it mostly keeps no summary, costs no more memory, and
// the kernels read what the span alone has them read.

// Bitset is an immutable packed row set over a fixed universe [0, n).
// Safe for concurrent readers, like the posting lists of sparse values.
type Bitset struct {
	words []uint64
	// summary: bit i%64 of summary[i/64] is set iff words[i] != 0; nil
	// unless hasSummary
	summary []uint64
	n       int // set bits
	nz      int // non-zero words
	lo, hi  int // the span: words[lo:hi] holds every set bit; lo == hi when there is none
}

// newBitset makes words, holding n set bits, a Bitset, which then owns them.
// It is the one way to build one, so every bitset carries its span and,
// where it pays, its summary.
func newBitset(words []uint64, n int) *Bitset {
	b := &Bitset{words: words, n: n}
	b.nz, b.lo, b.hi = shape(words)
	if !hasSummary(b.lo, b.hi, b.nz) {
		return b
	}
	b.summary = make([]uint64, (len(words)+63)/64)
	for i := b.lo; i < b.hi; i++ {
		if words[i] != 0 {
			b.summary[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return b
}

// shape returns how many of words are non-zero and the span they lie in,
// [0, 0) when none is.
func shape(words []uint64) (nz, lo, hi int) {
	for i, w := range words {
		if w != 0 {
			if nz == 0 {
				lo = i
			}
			nz++
			hi = i + 1
		}
	}
	return nz, lo, hi
}

// MaxBytes returns the most a bitset over numWords words holds: its words
// and a summary's (see Bytes).
func MaxBytes(numWords int) int64 { return 8 * int64(numWords+(numWords+63)/64) }

// Dense reports whether a value held by length of a table's numRows
// rows is stored as a bitset: the bitmap's numRows/8 bytes must not exceed
// the 4·length bytes a sorted list would cost, i.e. length ≥ numRows/32.
func Dense(length, numRows int) bool {
	return length > 0 && 32*length >= numRows
}

// NewContainer returns the rows set in words — row r as bit r%64 of word
// r/64 — in the container that reads them in fewer words: a Bitset over
// words itself where reading it alone — its span's words, or its summary's
// and its non-zero words where it keeps one — costs fewer words than the
// sorted list's entries and it holds at most maxBytes (see Bytes),
// which then owns words; a fresh ascending list otherwise, never nil, even
// when empty, and words left as they were. A search keeps the rows a
// coverage walk visited this way, to intersect in place of the containers
// it walked, within what it set aside for them. This is not the index's
// rule (see Dense), which weighs memory: rows that cluster into a few words
// read for less as a bitset than as a list, however sparse they are.
func NewContainer(words []uint64, maxBytes int64) (list []int32, set *Bitset) {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	nz, lo, hi := shape(words)
	read, size := hi-lo, 8*int64(len(words))
	if hasSummary(lo, hi, nz) {
		read, size = summaryWords(lo, hi)+nz, MaxBytes(len(words))
	}
	if n > 0 && read < n && size <= maxBytes {
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

// Bytes returns what the bitset holds: its words and its summary's.
func (b *Bitset) Bytes() int64 { return 8 * int64(len(b.words)+len(b.summary)) }

// Contains reports whether row is set. Out-of-universe rows are not set.
func (b *Bitset) Contains(row int) bool {
	if row < 0 || row>>6 >= len(b.words) {
		return false
	}
	return b.words[row>>6]&(1<<(uint(row)&63)) != 0
}

// summaryWords returns how many summary words cover data words [lo, hi).
func summaryWords(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	return (hi-1)>>6 - lo>>6 + 1
}

// hasSummary reports whether a bitset whose nz non-zero words span [lo, hi)
// keeps a summary: where reading it alone through one — the summary words
// over the span, then the non-zero words — reads fewer words than the span.
func hasSummary(lo, hi, nz int) bool { return summaryWords(lo, hi)+nz < hi-lo }

// overlap returns the words where every set's span overlaps — outside them
// some set's word is zero, and so is the AND; empty when the spans are
// disjoint — and how many sets' summaries the kernels read there: none on
// the span route, which reads, a set, every word of the overlap. The
// summary route reads the summary words over the overlap of every set that
// has a summary and, a set, the data words every summary marks, which are
// at most marks, the fewest non-zero words of any set with a summary; it
// is taken only where that bound is below the overlap's words, so no call
// reads more than the span route would. Where no set has a summary — dense
// values of a table in no particular order — the sets are read as by the
// span alone.
func overlap(sets []*Bitset) (lo, hi int, summaries int64, marks int) {
	if len(sets) == 0 {
		return 0, 0, 0, 0
	}
	lo, hi = sets[0].lo, sets[0].hi
	for _, s := range sets {
		lo, hi = max(lo, s.lo), min(hi, s.hi)
		if s.summary != nil {
			if summaries == 0 || s.nz < marks {
				marks = s.nz
			}
			summaries++
		}
	}
	if lo >= hi {
		return 0, 0, 0, 0
	}
	if summaries == 0 || summaryWords(lo, hi)+marks >= hi-lo {
		return lo, hi, 0, 0
	}
	return lo, hi, summaries, marks
}

// AndWords returns the most AndCount or AndEach books for sets, from what
// overlap decides and without reading a word: on the span route every
// set's words of the spans' overlap; on the summary route the summaries'
// words over it and, a set, the most data words the summaries can mark.
// Of one set it is exactly what reading that set alone books — its span's
// words, or its summary's and its non-zero words — which is what the
// driver of EachInAll books.
func AndWords(sets []*Bitset) int64 {
	lo, hi, summaries, marks := overlap(sets)
	if summaries == 0 {
		return int64(len(sets)) * int64(hi-lo)
	}
	return summaries*int64(summaryWords(lo, hi)) + int64(len(sets))*int64(marks)
}

// eachWord calls fn(i) for every data word i the AND of sets can hold a row
// in, ascending, until fn returns false: every word of the spans' overlap,
// or, on the summary route, the words every summary marks (see marked). It
// returns the words read up to where it stopped: len(sets) for every
// position handed to fn and, on the summary route, one for every summary
// word reached of every set that has a summary. AndCount reads the same
// words in a loop of its own, which calls nothing a word.
func eachWord(sets []*Bitset, fn func(i int) bool) (wordsRead int64) {
	lo, hi, summaries, _ := overlap(sets)
	k := int64(len(sets))
	if summaries == 0 {
		for i := lo; i < hi; i++ {
			wordsRead += k
			if !fn(i) {
				break
			}
		}
		return wordsRead
	}
	for s := lo >> 6; s <= (hi-1)>>6; s++ {
		wordsRead += summaries
		for m := marked(sets, s, lo, hi); m != 0; m &= m - 1 {
			wordsRead += k
			if !fn(s<<6 + bits.TrailingZeros64(m)) {
				return wordsRead
			}
		}
	}
	return wordsRead
}

// marked returns the data words s·64 … s·64+63 within [lo, hi) that every
// set's summary marks non-zero, a set without a summary marking every word
// of its span, and so of [lo, hi): a data word it holds as zero is read,
// and ANDs to nothing, as on the span route.
func marked(sets []*Bitset, s, lo, hi int) uint64 {
	m := ^uint64(0)
	if s == lo>>6 {
		m <<= uint(lo) & 63
	}
	if s == (hi-1)>>6 {
		m &= ^uint64(0) >> (63 - uint(hi-1)&63)
	}
	for _, t := range sets {
		if t.summary != nil {
			m &= t.summary[s]
		}
	}
	return m
}

// and returns the AND of every set's word i.
func and(sets []*Bitset, i int) uint64 {
	w := sets[0].words[i]
	for _, s := range sets[1:] {
		w &= s.words[i]
	}
	return w
}

// AndCount returns the number of rows common to all sets — the
// intersection cardinality by word-at-a-time AND + popcount, no row
// enumerated — together with the words read, as eachWord books them (the
// I/O charged in place of posting entries). All sets must share one
// universe (containers of one Index always do). Zero sets yield zero.
func AndCount(sets []*Bitset) (count int, wordsRead int64) {
	lo, hi, summaries, _ := overlap(sets)
	k := int64(len(sets))
	if summaries == 0 {
		for i := lo; i < hi; i++ {
			count += bits.OnesCount64(and(sets, i))
		}
		return count, k * int64(hi-lo)
	}
	for s := lo >> 6; s <= (hi-1)>>6; s++ {
		wordsRead += summaries
		for m := marked(sets, s, lo, hi); m != 0; m &= m - 1 {
			wordsRead += k
			count += bits.OnesCount64(and(sets, s<<6+bits.TrailingZeros64(m)))
		}
	}
	return count, wordsRead
}

// AndEach calls fn(row) for every row common to all sets, in ascending
// row order — the order a scan or a posting-list walk visits them, so
// aggregate accumulation stays bit-identical across access paths — and
// returns the words read, as AndCount books them. All sets must share one
// universe. Zero sets visit nothing.
func AndEach(sets []*Bitset, fn func(row int)) (wordsRead int64) {
	return eachWord(sets, func(i int) bool {
		base := i << 6
		for w := and(sets, i); w != 0; w &= w - 1 {
			fn(base + bits.TrailingZeros64(w))
		}
		return true
	})
}
