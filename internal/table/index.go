package table

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"smartdrill/internal/rule"
)

// Index is a table's inverted index: for every (column, value) pair, the
// sorted list of rows holding that value. Posting lists are built lazily,
// one column at a time, on first use — a dataset pays one pass per column
// it is ever filtered on, and nothing for columns it is not. One Index
// exists per Table (see Table.Index), so every session on a shared dataset
// reuses the same posting lists instead of re-scanning per request.
//
// Building is guarded by a per-column sync.Once, making the Index safe for
// concurrent use by any number of readers.
type Index struct {
	t    *Table
	cols []colPostings
}

type colPostings struct {
	once  sync.Once
	built atomic.Bool
	lists [][]int32 // lists[v] = ascending rows with Value(c, row) == v
	// bits[v] shadows lists[v] with a packed bitset when the list is dense
	// enough that the bitmap costs no more memory than the list (see
	// bitsetDense); nil otherwise. Built together with lists under the same
	// once, so built covers both representations.
	bits []*Bitset
}

// Index returns the table's inverted index, allocating it on first call.
// The index itself builds per-column posting lists lazily.
func (t *Table) Index() *Index {
	t.idxOnce.Do(func() {
		t.idx = &Index{t: t, cols: make([]colPostings, len(t.cols))}
	})
	return t.idx
}

// buildCol materializes column c's posting lists with one counting pass
// (sizes) and one fill pass, so every list is exact-capacity and ascending
// by construction.
func (ix *Index) buildCol(c int) {
	cp := &ix.cols[c]
	cp.once.Do(func() {
		col := ix.t.cols[c]
		sizes := make([]int32, ix.t.dicts[c].Len())
		for _, v := range col {
			sizes[v]++
		}
		lists := make([][]int32, len(sizes))
		for v := range lists {
			lists[v] = make([]int32, 0, sizes[v])
		}
		for i, v := range col {
			lists[v] = append(lists[v], int32(i))
		}
		bits := make([]*Bitset, len(lists))
		for v, list := range lists {
			if bitsetDense(len(list), ix.t.n) {
				bits[v] = NewBitsetFromSorted(list, ix.t.n)
			}
		}
		cp.lists = lists
		cp.bits = bits
		cp.built.Store(true)
	})
}

// ColumnBuilt reports whether column c's posting lists are already
// materialized. Cost planners (BRS's scan-vs-postings decision) use it to
// avoid charging a surprise build pass to a single counting step: the
// planner only routes work to columns that are already paid for.
func (ix *Index) ColumnBuilt(c int) bool { return ix.cols[c].built.Load() }

// PostingsLen returns the number of rows holding value v in column c —
// Count(base+(c,v)) on the full table — building the column's lists on
// first use. Level-1 BRS counting under the Count aggregate reads only
// these lengths, no posting entries.
func (ix *Index) PostingsLen(c int, v rule.Value) int { return len(ix.Postings(c, v)) }

// Postings returns the ascending row list for value v of column c, building
// the column's lists on first use. The returned slice must not be modified.
// Values outside the column's dictionary (never produced by Encode/Lookup)
// yield nil.
func (ix *Index) Postings(c int, v rule.Value) []int32 {
	ix.buildCol(c)
	lists := ix.cols[c].lists
	if v < 0 || int(v) >= len(lists) {
		return nil
	}
	return lists[v]
}

// Bitmap returns the packed bitset shadowing value v's posting list in
// column c, or nil when the list is too sparse to carry one (see
// bitsetDense) or v is outside the column's dictionary. Builds the
// column's containers on first use, like Postings; callers that must not
// pay a build (cost planners) gate on ColumnBuilt first.
func (ix *Index) Bitmap(c int, v rule.Value) *Bitset {
	ix.buildCol(c)
	bits := ix.cols[c].bits
	if v < 0 || int(v) >= len(bits) {
		return nil
	}
	return bits[v]
}

// Lookup returns the ascending rows covered by r via posting-list
// intersection, along with the number of posting entries read (the I/O the
// storage layer accounts in place of a full scan). The trivial rule yields
// every row. Intersection starts from the shortest list, so cost is bounded
// by the most selective column's coverage, not the table size.
func (ix *Index) Lookup(r rule.Rule) (rows []int, postingsRead int64) {
	cols := r.InstantiatedColumns()
	if len(cols) == 0 {
		rows = make([]int, ix.t.n)
		for i := range rows {
			rows[i] = i
		}
		return rows, int64(ix.t.n)
	}
	lists := make([][]int32, len(cols))
	for j, c := range cols {
		lists[j] = ix.Postings(c, r[c])
		if len(lists[j]) == 0 {
			// Non-nil: a nil row list means "all rows" to View, the
			// opposite of an empty coverage set.
			return []int{}, 0
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	// Intersect the shortest list against each longer one with a merge walk
	// (both sides ascending). The running result only shrinks, so each later
	// merge reads at most len(result) + len(list) entries.
	cur := lists[0]
	postingsRead = int64(len(cur))
	for _, next := range lists[1:] {
		out := cur[:0:0] // fresh backing array; cur may alias a posting list
		i, j := 0, 0
		for i < len(cur) && j < len(next) {
			a, b := cur[i], next[j]
			switch {
			case a == b:
				out = append(out, a)
				i++
				j++
			case a < b:
				i++
			default:
				j++
			}
		}
		postingsRead += int64(j)
		if j < len(next) {
			postingsRead++ // the probe that overshot cur's tail
		}
		cur = out
		if len(cur) == 0 {
			break
		}
	}
	rows = make([]int, len(cur))
	for i, v := range cur {
		rows[i] = int(v)
	}
	return rows, postingsRead
}

// FilterIndices returns the rows covered by r, ascending, via the index.
//
//sdlint:allow ioaccount untracked convenience path for Table.Filter and the bench/equivalence harnesses; the engine's accounted route is storage.Store.FilterRows, which books Lookup's postingsRead
func (ix *Index) FilterIndices(r rule.Rule) []int {
	rows, _ := ix.Lookup(r)
	return rows
}

// Warm eagerly builds every column's posting lists. The server calls it at
// dataset registration so no analyst's first drill-down pays the build.
// Columns are independent (each behind its own once), so up to GOMAXPROCS
// of them build at a time, the caller's goroutine included.
func (ix *Index) Warm() {
	var next atomic.Int32
	build := func() {
		for c := int(next.Add(1)) - 1; c < len(ix.cols); c = int(next.Add(1)) - 1 {
			ix.buildCol(c)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ix.cols)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build()
		}()
	}
	build()
	wg.Wait()
}
