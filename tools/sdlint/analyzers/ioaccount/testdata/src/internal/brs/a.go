package brs

import "table"

type Stats struct {
	RowsScanned     int64
	PostingsRead    int64
	BitmapWordsRead int64
}

type runner struct {
	ix    *table.Index
	v     *table.View
	stats Stats
}

func (rn *runner) parallelRows(n int, fn func(lo, hi, g int)) { fn(0, n, 0) }

func (rn *runner) countScanAccounted(rows []int) {
	rn.parallelRows(len(rows), func(lo, hi, g int) {})
	rn.stats.RowsScanned += int64(len(rows))
}

// countScanUnaccounted is the acceptance scenario: a counting pass whose
// Stats increment was (deliberately) removed.
func (rn *runner) countScanUnaccounted(rows []int) {
	rn.parallelRows(len(rows), func(lo, hi, g int) {}) // want "brs.runner.parallelRows reads rows but this function never adds to Stats.RowsScanned"
}

func (rn *runner) gatherAccounted(lists [][]int32, bits []*table.Bitset) {
	entries, words := rn.v.EachInAll(lists, func(pos, row int) {}, bits...)
	rn.stats.PostingsRead += entries
	rn.stats.BitmapWordsRead += words
}

func (rn *runner) gatherUnaccounted(lists [][]int32) (int64, int64) {
	return rn.v.EachInAll(lists, func(pos, row int) {}) // want "table.View.EachInAll reads posting entries" "table.View.EachInAll reads bitmap words"
}

// gatherDropsWords books the entries the walk read but not the bitset
// words it probed: the walk reads both classes.
func (rn *runner) gatherDropsWords(lists [][]int32, bits []*table.Bitset) {
	entries, _ := rn.v.EachInAll(lists, func(pos, row int) {}, bits...) // want "table.View.EachInAll reads bitmap words but this function never adds to Stats.BitmapWordsRead"
	rn.stats.PostingsRead += entries
}

func (rn *runner) bitmapAccounted(sets []*table.Bitset) int {
	cnt, words := table.AndCount(sets)
	rn.stats.BitmapWordsRead += words
	return cnt
}

func (rn *runner) bitmapUnaccounted(sets []*table.Bitset) int {
	cnt, _ := table.AndCount(sets) // want "AndCount reads bitmap words"
	return cnt
}

// candLists gathers list headers only; the kernels that consume them
// meter the entries actually read.
//
//sdlint:allow ioaccount hands list headers to the intersection kernels, which meter and book the entries read
func (rn *runner) candLists(col, val int) [][]int32 {
	return [][]int32{rn.ix.Postings(col, val)}
}

func (rn *runner) planLen(col, val int) int {
	return rn.ix.PostingsLen(col, val) // catalog metadata: exempt
}
