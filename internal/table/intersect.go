package table

import (
	"cmp"
	mathbits "math/bits"
	"slices"
)

// Posting intersection. BRS's postings-driven counting answers "which rows
// of the table does candidate R cover?" by intersecting the Sets of R's
// instantiated columns — the index's containers, or a cover a walk kept
// (Keeper) — instead of scanning every row. A search reads a whole table —
// BRS copies a sub-view into one before it starts (View.Select) — so the
// walk below is over Sets alone. It visits the common rows in ascending
// order — the order a scan visits them — so aggregate accumulation is
// bit-identical between the two access paths.

// EachInAll calls fn(row) for every row in all of sets, in ascending
// order, and books what it read in place of a scan into m: list entries
// and packed bitset words.
//
// The smallest set (Len) drives the walk: its rows are taken in ascending
// order — a list's entries one read each, a bitset's set bits for the words
// that reading it alone reads (its span's, or, where it keeps a summary,
// the summary's and its non-zero words), which are fewer — and each is
// tested against every other set: by one word read where the set is a
// bitset, by galloping where it is a list. Cost is thus governed by the
// most selective set: when every other set is a bitset, at most one unit
// per driver row per set, however many rows of the larger sets lie
// between. Bit order is row order, the order a scan meets the rows in, so
// what fn accumulates is bit-identical whichever container a set happens
// to be.
func EachInAll(m Meter, sets []Set, fn func(row int)) {
	if len(sets) == 0 {
		return
	}
	// Order by size ascending without mutating the caller's slice; of
	// equals the first given comes first. Room for a 16-column rule's sets
	// on the stack; a wider one's grow on the heap.
	var orderBuf [16]int
	order := orderBuf[:0]
	for i := range sets {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(sets[i].Len(), sets[j].Len()) })
	driver := sets[order[0]]
	if driver.Len() == 0 {
		return
	}
	// The non-driver sets, smallest (most selective) first: the bitsets are
	// probed, the lists galloped through.
	w := walk{fn: fn}
	for _, i := range order[1:] {
		if b := sets[i].bits; b != nil {
			w.probe = append(w.probe, b)
		} else {
			w.others = append(w.others, sets[i].list)
		}
	}
	w.offs = make([]int, len(w.others))

	if driver.bits == nil {
		for _, r := range driver.list {
			if !w.visit(r) {
				break
			}
		}
		m.Book(0, int64(len(driver.list))+w.entries, w.words)
		return
	}
	words := driver.bits.words
	driven := eachWord(sets[order[0]:order[0]+1], func(i int) bool {
		for word := words[i]; word != 0; word &= word - 1 {
			if !w.visit(int32(i<<6 + mathbits.TrailingZeros64(word))) {
				return false
			}
		}
		return true
	})
	m.Book(0, w.entries, w.words+driven)
}

// EachInAll is the kernel EachInAll over a view of its whole table, an
// adapter over Set: set i is bits[i] where that is given, and lists[i]
// otherwise (bits is aligned with lists). fn gets each row as its own view
// position too, and it returns what the kernel booked. The benchmark's layer reading of the kernel
// (bench/drillload) calls it; the engine calls the kernel. It panics on a
// sub-view, which has no containers of its own: copy it into a table first
// (View.Select).
func (v *View) EachInAll(lists [][]int32, fn func(pos, row int), bits ...*Bitset) (postingsRead, wordsRead int64) {
	if v.rows != nil {
		panic("table: View.EachInAll on a sub-view")
	}
	sets := make([]Set, len(lists))
	for i, l := range lists {
		sets[i].list = l
		if i < len(bits) && bits[i] != nil {
			sets[i] = Set{bits: bits[i]}
		}
	}
	var read Tally
	EachInAll(&read, sets, func(row int) { fn(row, row) })
	return read.Entries, read.Words
}

// walk is the part of an intersection walk every driver shares: a row of
// the driver is sought in the sorted lists, each from where the previous
// row left off, then in the bitsets.
type walk struct {
	fn     func(row int)
	others [][]int32 // the non-driver sets that are lists
	offs   []int     // how far each of others has been read
	probe  []*Bitset // the non-driver sets that are bitsets

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
