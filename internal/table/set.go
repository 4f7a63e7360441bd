package table

import "math/bits"

// Set is one row set of a table: the ascending list of its rows or a Bitset
// holding them, never both — one container type with an array or a bitmap
// inside, as in Roaring (see Bitset). It is what the index stores a value
// in (Index.Container), what a search keeps a walk's rows in (Keeper), and
// what every kernel reads (EachInAll, AndEach). Its rows are this
// package's alone to read, so no read of one can be made but by a kernel,
// which books it. The zero Set is empty.
type Set struct {
	list []int32 // ascending; nil where bits holds the rows
	bits *Bitset
}

// Len returns the number of rows in s.
func (s Set) Len() int {
	if s.bits != nil {
		return s.bits.n
	}
	return len(s.list)
}

// Bytes returns what s holds: a list's 4 bytes a row, or a bitset's words
// and summary.
func (s Set) Bytes() int64 {
	if s.bits != nil {
		return s.bits.Bytes()
	}
	return 4 * int64(len(s.list))
}

// IsBitset reports whether s holds its rows in a Bitset, which the AND
// kernels read (AndEach), and not in a list.
func (s Set) IsBitset() bool { return s.bits != nil }

// rows returns s's rows as an ascending list: a list's own, which must not
// be modified, or a bitset's decoded into a fresh one.
func (s Set) rows() []int32 {
	if s.bits == nil {
		return s.list
	}
	list := make([]int32, 0, s.bits.n)
	AndEach(new(Tally), []Set{s}, func(row int) { list = append(list, int32(row)) })
	return list
}

// dense reports whether the index stores a value held by length of a
// table's numRows rows as a bitset: the bitmap's numRows/8 bytes must not
// exceed the 4·length bytes a sorted list would cost, i.e. length ≥
// numRows/32.
func dense(length, numRows int) bool {
	return length > 0 && 32*length >= numRows
}

// maxBitsetBytes returns the most a bitset over numWords words holds: its
// words and a summary's (see Bitset.Bytes).
func maxBitsetBytes(numWords int) int64 { return 8 * int64(numWords+(numWords+63)/64) }

// MaxContainerBytes returns the most the index's container for length of a
// table's numRows rows holds: a list's 4 bytes a row, or, where that many
// rows are dense, a bitset's words and summary — what a search sets aside
// before a walk of at most length rows keeps them (Keeper).
func MaxContainerBytes(length, numRows int) int64 {
	if dense(length, numRows) {
		return maxBitsetBytes((numRows + 63) / 64)
	}
	return 4 * int64(length)
}

// Keeper collects the rows a walk visits, one bit a row, and keeps them as
// a Set (Keep). A search keeps a walk's rows this way, to intersect in
// place of the containers it walked. Its zero value is ready to Start.
type Keeper struct{ words []uint64 }

// Start readies k for a walk over a table of numRows rows. It allocates
// only on first use, and after a Keep that gave k's words to a bitset.
func (k *Keeper) Start(numRows int) {
	if k.words == nil {
		k.words = make([]uint64, (numRows+63)/64)
	}
}

// Add adds row to what k holds.
func (k *Keeper) Add(row int) { k.words[row>>6] |= 1 << (uint(row) & 63) }

// Keep returns the rows added since Start in the container that reads them
// in fewer words: a Bitset, which then owns k's words, where reading it
// alone — its span's words, or its summary's and its non-zero words where
// it keeps one — costs fewer words than the list's entries and it holds at
// most most bytes (see Bitset.Bytes); a fresh ascending list otherwise,
// never nil, even when empty, with k's words cleared for the next walk.
// This is not the index's rule (see dense), which weighs memory: rows that
// cluster into a few words read for less as a bitset than as a list,
// however sparse they are.
func (k *Keeper) Keep(most int64) Set {
	words := k.words
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	nz, lo, hi := shape(words)
	read, size := hi-lo, 8*int64(len(words))
	if hasSummary(lo, hi, nz) {
		read, size = summaryWords(lo, hi)+nz, maxBitsetBytes(len(words))
	}
	if n > 0 && read < n && size <= most {
		k.words = nil
		return Set{bits: newBitset(words, n)}
	}
	list := make([]int32, 0, n)
	for i := lo; i < hi; i++ {
		for w := words[i]; w != 0; w &= w - 1 {
			list = append(list, int32(i<<6+bits.TrailingZeros64(w)))
		}
		words[i] = 0
	}
	return Set{list: list}
}
