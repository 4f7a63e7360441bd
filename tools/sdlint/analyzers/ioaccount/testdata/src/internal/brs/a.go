package brs

import "table"

type Stats struct {
	RowsScanned     int64
	PostingsRead    int64
	BitmapWordsRead int64
}

type runner struct {
	ix    *table.Index
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

// polled is a raw op too: its own call to parallelRows is its business,
// and what it returns its caller books.
func (rn *runner) polled(n, stride int, fn func(lo, hi, g int)) int64 {
	rn.parallelRows(n, fn)
	return int64(n)
}

func (rn *runner) rowPassAccounted(rows []int) {
	rn.stats.RowsScanned += rn.polled(len(rows), 4096, func(lo, hi, g int) {})
}

func (rn *runner) rowPassUnaccounted(rows []int) int64 {
	return rn.polled(len(rows), 4096, func(lo, hi, g int) {}) // want "brs.runner.polled reads rows but this function never adds to Stats.RowsScanned"
}

func (rn *runner) gatherAccounted(lists [][]int32, bits []*table.Bitset) {
	entries, words := table.EachInAll(lists, func(row int) {}, bits...)
	rn.stats.PostingsRead += entries
	rn.stats.BitmapWordsRead += words
}

func (rn *runner) gatherUnaccounted(lists [][]int32) (int64, int64) {
	return table.EachInAll(lists, func(row int) {}) // want "table..EachInAll reads posting entries" "table..EachInAll reads bitmap words"
}

// gatherDropsWords books the entries the walk read but not the bitset
// words it probed: the walk reads both classes.
func (rn *runner) gatherDropsWords(lists [][]int32, bits []*table.Bitset) {
	entries, _ := table.EachInAll(lists, func(row int) {}, bits...) // want "table..EachInAll reads bitmap words but this function never adds to Stats.BitmapWordsRead"
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

// candSets gathers containers only; the walk that consumes them meters
// the entries and words actually read.
//
//sdlint:allow ioaccount hands containers to the probing walk, which meters and books the entries and words read
func (rn *runner) candSets(col, val int) ([][]int32, []*table.Bitset) {
	list, set := rn.ix.Container(col, val)
	return [][]int32{list}, []*table.Bitset{set}
}

// walkDenseDriverUnbooked reaches a value's container and walks it, but
// books entries only: where the value is dense the container is a bitset,
// its rows are read off its words, and those are bitmap words.
func (rn *runner) walkDenseDriverUnbooked(col, val int) {
	list, set := rn.ix.Container(col, val)                                // want "table.Index.Container reads bitmap words but this function never adds to Stats.BitmapWordsRead"
	entries, _ := table.EachInAll([][]int32{list}, func(row int) {}, set) // want "table..EachInAll reads bitmap words but this function never adds to Stats.BitmapWordsRead"
	rn.stats.PostingsRead += entries
}

// searchedAccounted copies a view into the table a search reads and books
// the rows the copy read; searchedUnaccounted drops them.
func (rn *runner) searchedAccounted(v *table.View) *table.Table {
	t, read := v.Select(nil)
	rn.stats.RowsScanned += int64(read)
	return t
}

func (rn *runner) searchedUnaccounted(v *table.View) *table.Table {
	t, _ := v.Select(nil) // want "table.View.Select reads rows but this function never adds to Stats.RowsScanned"
	return t
}

func (rn *runner) planLen(col, val int) int {
	return rn.ix.PostingsLen(col, val) // catalog metadata: exempt
}
