package table

import (
	"cmp"
	mathbits "math/bits"
	"slices"
)

// Posting intersection. BRS's postings-driven counting answers "which rows
// of the table does candidate R cover?" by intersecting the index
// containers of R's instantiated columns, instead of scanning every row. A
// search reads a whole table — BRS copies a sub-view into one before it
// starts (View.Select) — so the walk below is over containers alone. It
// visits the common rows in ascending order — the order a scan visits them
// — so aggregate accumulation is bit-identical between the two access
// paths.

// EachInAll calls fn(row) for every row in all of the given row sets, in
// ascending order, and returns what it read in place of a scan: posting
// entries and packed bitset words. Set i is the ascending list lists[i],
// or — where that is nil and bits, aligned with lists, has a Bitset at i —
// that bitset: a value of the index comes as exactly one of the two
// (Index.Container), and is passed as it comes. Where both are given the
// list is the set and the bitset must hold the same rows.
//
// The smallest set drives the walk: its rows are taken in ascending order —
// a list's entries one read each, a bitset's set bits for the words that
// reading it alone reads (its span's, or, where it keeps a summary, the
// summary's and its non-zero words), which are fewer — and each is tested
// against every other set: by one word read where the set has a bitset, by
// galloping where it has none. Cost is thus governed by the most selective
// column: when every other set has a bitset, at most one unit per driver
// row per set, however many rows of the larger sets lie between. Bit order
// is row order, the order a scan meets the rows in, so what fn accumulates
// is bit-identical whichever container a value happens to have.
func EachInAll(lists [][]int32, fn func(row int), bits ...*Bitset) (postingsRead, wordsRead int64) {
	if len(lists) == 0 {
		return 0, 0
	}
	bitsOf := func(i int) *Bitset {
		if i < len(bits) {
			return bits[i]
		}
		return nil
	}
	size := func(i int) int {
		if b := bitsOf(i); lists[i] == nil && b != nil {
			return b.n
		}
		return len(lists[i])
	}
	// Order by size ascending without mutating the caller's slices; of
	// equals the first given comes first. Room for a 16-column rule's sets
	// on the stack; a wider one's grow on the heap.
	var orderBuf [16]int
	order := orderBuf[:0]
	for i := range lists {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(size(i), size(j)) })
	if size(order[0]) == 0 {
		return 0, 0
	}
	// The non-driver sets, smallest (most selective) first: those with a
	// bitset are probed, the rest galloped through.
	w := walk{fn: fn}
	for _, i := range order[1:] {
		if b := bitsOf(i); b != nil {
			w.probe = append(w.probe, b)
		} else {
			w.others = append(w.others, lists[i])
		}
	}
	w.offs = make([]int, len(w.others))

	if driver := lists[order[0]]; driver != nil {
		for _, r := range driver {
			if !w.visit(r) {
				break
			}
		}
		return int64(len(driver)) + w.entries, w.words
	}
	d := [1]*Bitset{bitsOf(order[0])}
	driven := eachWord(d[:], func(i int) bool {
		for word := d[0].words[i]; word != 0; word &= word - 1 {
			if !w.visit(int32(i<<6 + mathbits.TrailingZeros64(word))) {
				return false
			}
		}
		return true
	})
	return w.entries, w.words + driven
}

// EachInAll is the kernel EachInAll over a view of its whole table, fn
// getting each row as its own view position too. The benchmark's layer
// reading of the kernel (bench/drillload) calls it; the engine calls the
// kernel. It panics on a sub-view, which has no containers of its own: copy
// it into a table first (View.Select).
func (v *View) EachInAll(lists [][]int32, fn func(pos, row int), bits ...*Bitset) (postingsRead, wordsRead int64) {
	if v.rows != nil {
		panic("table: View.EachInAll on a sub-view")
	}
	return EachInAll(lists, func(row int) { fn(row, row) }, bits...)
}

// walk is the part of an intersection walk every driver shares: a row of
// the driver is sought in the sorted lists, each from where the previous
// row left off, then in the bitsets.
type walk struct {
	fn     func(row int)
	others [][]int32 // the non-driver sets without a bitset
	offs   []int     // how far each of others has been read
	probe  []*Bitset // the non-driver sets with one

	entries, words int64 // read of others and of probe
}

// visit calls fn if row r is in every set. It returns false once a list is
// exhausted: no later row can be common.
func (w *walk) visit(r int32) bool {
	for j, list := range w.others {
		o := gallop(list, w.offs[j], r)
		w.entries += int64(o - w.offs[j])
		w.offs[j] = o
		if o == len(list) {
			return false
		}
		if list[o] != r {
			return true
		}
	}
	for _, b := range w.probe {
		w.words++
		if !b.Contains(int(r)) {
			return true
		}
	}
	w.fn(int(r))
	return true
}

// gallop returns the smallest index i in [from, len(a)] with a[i] >=
// target, probing exponentially from `from` before binary-searching the
// bracketed range — O(log distance) instead of O(distance) when the
// target is near, which it is on intersection walks.
func gallop(a []int32, from int, target int32) int {
	if from >= len(a) || a[from] >= target {
		return from
	}
	step := 1
	lo := from
	for lo+step < len(a) && a[lo+step] < target {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(a) {
		hi = len(a)
	}
	// Invariant: a[lo] < target, a[hi] >= target (or hi == len(a)).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
