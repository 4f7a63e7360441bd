package table

import "sort"

// Posting intersection over views. BRS's postings-driven counting answers
// "which of this view's rows does candidate R cover?" by intersecting the
// posting lists of R's instantiated columns with the view's row set,
// instead of scanning every view row. The walk below visits the common
// rows in ascending order — the same order a scan visits them — so
// aggregate accumulation is bit-identical between the two access paths.

// Ascending reports whether the view's rows form a strictly increasing
// sequence of parent rows — i.e. the view is a sorted row *set*. The
// full-table view is ascending; index-backed rule filters are ascending by
// construction; sampled views (shuffled, possibly with replacement) are
// not and must be counted by scans.
func (v *View) Ascending() bool {
	for i := 1; i < len(v.rows); i++ {
		if v.rows[i] <= v.rows[i-1] {
			return false
		}
	}
	return true
}

// EachInAll calls fn(pos, row) for every view position pos whose parent
// row appears in all of the given ascending posting lists, in ascending
// row order, and returns what it read in place of a scan: posting entries
// and packed bitset words. The view's rows must be ascending (see
// Ascending); lists must be non-nil. bits, when given, is aligned with
// lists: bits[i] is the Bitset shadowing lists[i], or nil where the list
// carries none.
//
// The shortest list drives the walk. Each driver row is tested against
// every other list — by one word read where the list has a bitset
// (membership is over parent rows, so this holds on sub-views too), by
// galloping where it has none — so cost is governed by the most selective
// column: when every other list has a bitset, at most one unit per driver
// entry per list, however many entries of the longer lists lie between.
func (v *View) EachInAll(lists [][]int32, fn func(pos, row int), bits ...*Bitset) (postingsRead, wordsRead int64) {
	if len(lists) == 0 {
		return 0, 0
	}
	// Order by length ascending without mutating the caller's slices.
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return len(lists[order[i]]) < len(lists[order[j]]) })
	driver := lists[order[0]]
	if len(driver) == 0 {
		return 0, 0
	}
	// others are the non-driver lists, shortest (most selective) first;
	// probe[j] replaces galloping through others[j] when non-nil.
	others := make([][]int32, len(order)-1)
	probe := make([]*Bitset, len(others))
	for j, i := range order[1:] {
		others[j] = lists[i]
		if i < len(bits) {
			probe[j] = bits[i]
		}
	}
	postingsRead = int64(len(driver))
	offs := make([]int, len(others))
	vo := 0
outer:
	for _, r := range driver {
		for j, list := range others {
			if b := probe[j]; b != nil {
				wordsRead++
				if !b.Contains(int(r)) {
					continue outer
				}
				continue
			}
			o := gallop32(list, offs[j], r)
			postingsRead += int64(o - offs[j])
			offs[j] = o
			if o == len(list) {
				break outer // this list is exhausted; no further common rows
			}
			if list[o] != r {
				continue outer
			}
		}
		pos := int(r)
		if v.rows != nil {
			vo = gallopInt(v.rows, vo, int(r))
			if vo == len(v.rows) {
				break
			}
			if v.rows[vo] != int(r) {
				continue
			}
			pos = vo
		}
		fn(pos, int(r))
	}
	return postingsRead, wordsRead
}

// gallop32 returns the smallest index i in [from, len(a)] with a[i] >=
// target, probing exponentially from `from` before binary-searching the
// bracketed range — O(log distance) instead of O(distance) when the
// target is near, which it is on intersection walks.
func gallop32(a []int32, from int, target int32) int {
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

// gallopInt is gallop32 over an []int (the view's row list).
func gallopInt(a []int, from, target int) int {
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
