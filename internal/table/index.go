package table

import (
	"runtime"
	"sync"
	"sync/atomic"

	"smartdrill/internal/rule"
)

// Index is a table's inverted index: for every (column, value) pair, the
// set of rows holding that value, in exactly one container — a packed
// Bitset where the value is dense enough that the bitmap is the smaller of
// the two (see Dense), the sorted list of its rows otherwise. A
// column's index therefore costs Σ over its values of min(4·len, rows/8)
// bytes, and a bitset's summary, where it keeps one, a 64th of its words
// more (see Bitset) — at most four bytes per row whatever the data, and a
// sixteenth for the summaries, and an eighth of a byte per row and value on
// the few-valued columns the paper's tables are made of. The index is built
// whole, every column in parallel, by its first read (or by Warm), so a
// search's work never depends on which columns an earlier one happened to
// touch. One Index exists per Table (see Table.Index), so every session on
// a shared dataset reuses the same containers instead of re-scanning per
// request.
//
// The build runs under one sync.Once, making the Index safe for concurrent
// use by any number of readers.
type Index struct {
	t    *Table
	once sync.Once
	cols []colPostings // nil until the build
}

// colPostings is one column's containers. Value v's rows are bits[v] where
// that is non-nil and lists[v] otherwise, never both; sizes[v] is how many
// there are either way, and masses[v], on a weighted table, the sum of their
// multiplicities.
type colPostings struct {
	sizes  []int32
	masses []int64   // nil on an unweighted table, where every mass is its size
	lists  [][]int32 // ascending rows with Value(c, row) == v; nil where v is dense
	bits   []*Bitset // nil where v is sparse
}

// bytes is what a built column's containers, sizes and masses hold.
func (cp *colPostings) bytes() int64 {
	n := 4*int64(len(cp.sizes)) + 8*int64(len(cp.masses))
	for v, size := range cp.sizes {
		if b := cp.bits[v]; b != nil {
			n += b.Bytes()
		} else {
			n += 4 * int64(size)
		}
	}
	return n
}

// Index returns the table's inverted index, allocating it on first call.
// The index builds its containers on first read.
func (t *Table) Index() *Index {
	t.idxOnce.Do(func() { t.idx = &Index{t: t} })
	return t.idx
}

// buildCol materializes column c's containers.
func (ix *Index) buildCol(c int) {
	cp, col, vals, mult := &ix.cols[c], &ix.t.cols[c], ix.t.dicts[c].Len(), ix.t.mult
	switch col.width {
	case w8:
		buildPostings(cp, col.u8, vals, mult)
	case w16:
		buildPostings(cp, col.u16, vals, mult)
	default:
		buildPostings(cp, col.i32, vals, mult)
	}
}

// buildPostings fills cp from a column of vals distinct values with one
// counting pass (sizes) and one fill pass straight into each value's
// container, so every list is exact-capacity and ascending by construction
// and no list is ever built for a dense value. The sparse lists are cut
// from one array: a column of tens of thousands of values is one
// allocation, not one per value. On a weighted table — mult non-nil, a
// row's multiplicity — one more pass sums each value's masses.
func buildPostings[T cell](cp *colPostings, col []T, vals int, mult []int32) {
	rows := len(col)
	sizes := make([]int32, vals)
	for _, v := range col {
		sizes[v]++
	}
	lists := make([][]int32, vals)
	words := make([][]uint64, vals)
	sparse := 0
	for v, n := range sizes {
		if Dense(int(n), rows) {
			words[v] = make([]uint64, (rows+63)/64)
		} else {
			sparse += int(n)
		}
	}
	arena := make([]int32, sparse)
	for v, n := range sizes {
		if words[v] == nil {
			lists[v], arena = arena[:0:n], arena[n:]
		}
	}
	for i, v := range col {
		if w := words[v]; w != nil {
			w[i>>6] |= 1 << (uint(i) & 63)
		} else {
			lists[v] = append(lists[v], int32(i))
		}
	}
	bits := make([]*Bitset, vals)
	for v, w := range words {
		if w != nil {
			bits[v] = newBitset(w, int(sizes[v]))
		}
	}
	cp.sizes, cp.lists, cp.bits = sizes, lists, bits
	if mult != nil {
		cp.masses = make([]int64, vals)
		for i, v := range col {
			cp.masses[v] += int64(mult[i])
		}
	}
}

// PostingsLen returns the number of rows holding value v in column c —
// Count(base+(c,v)) on the full table — building the index on first use. It
// is read from the sizes stored beside the containers: level-1 BRS counting
// under the Count aggregate reads only these, no container.
func (ix *Index) PostingsLen(c int, v rule.Value) int {
	ix.Warm()
	sizes := ix.cols[c].sizes
	if v < 0 || int(v) >= len(sizes) {
		return 0
	}
	return int(sizes[v])
}

// Mass returns the rows holding value v in column c summed by their
// multiplicities — Count(base+(c,v)) over the tuples a distinct-tuple table
// stands for — and PostingsLen on an unweighted table. Like PostingsLen it
// is read from beside the containers: a level-1 count on a full weighted
// table reads no row.
func (ix *Index) Mass(c int, v rule.Value) int64 {
	ix.Warm()
	masses := ix.cols[c].masses
	if masses == nil {
		return int64(ix.PostingsLen(c, v))
	}
	if v < 0 || int(v) >= len(masses) {
		return 0
	}
	return masses[v]
}

// Container returns value v of column c's one container, building the index
// on first use: the ascending row list of a sparse value, the Bitset of a
// dense one, neither for a value outside the column's dictionary (never
// produced by Encode/Lookup). Neither may be modified. This is how the
// kernels reach the index (View.EachInAll takes the pair as it comes).
func (ix *Index) Container(c int, v rule.Value) (list []int32, bits *Bitset) {
	ix.Warm()
	cp := &ix.cols[c]
	if v < 0 || int(v) >= len(cp.sizes) {
		return nil, nil
	}
	return cp.lists[v], cp.bits[v]
}

// Postings returns the ascending row list for value v of column c, building
// the index on first use. A sparse value's list is the index's own and must
// not be modified; a dense value has no list, so this decodes its bitset
// into a fresh one of PostingsLen entries on every call
// — for callers outside the engine, whose kernels read the container as it
// is (see Container). Values outside the column's dictionary yield nil.
func (ix *Index) Postings(c int, v rule.Value) []int32 {
	list, bits := ix.Container(c, v)
	if bits == nil {
		return list
	}
	list = make([]int32, 0, bits.n)
	AndEach([]*Bitset{bits}, func(_, row int) { list = append(list, int32(row)) })
	return list
}

// Bitmap returns the packed bitset holding value v's rows in column c, or
// nil when the value is too sparse to be stored as one (see Dense) or
// v is outside the column's dictionary. Builds the index on first use, like
// Postings.
func (ix *Index) Bitmap(c int, v rule.Value) *Bitset {
	_, bits := ix.Container(c, v)
	return bits
}

// Lookup returns the ascending rows covered by r by intersecting the
// containers of r's instantiated columns (the walk of View.EachInAll over
// the whole table), along with what it read in place of a full scan:
// posting entries plus bitset words. The trivial rule yields every row.
// The smallest container drives the intersection, so cost is bounded by the
// most selective column's coverage — or, where that is dense, by its
// bitset's words — not the table size.
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
	bits := make([]*Bitset, len(cols))
	for j, c := range cols {
		lists[j], bits[j] = ix.Container(c, r[c])
	}
	// Non-nil also when nothing is covered: a nil row list means "all rows"
	// to View, the opposite of an empty coverage set. A single column's
	// coverage is its container's size; an intersection's is found out.
	rows = []int{}
	if len(cols) == 1 {
		rows = make([]int, 0, ix.PostingsLen(cols[0], r[cols[0]]))
	}
	entries, words := ix.t.All().EachInAll(lists, func(_, row int) { rows = append(rows, row) }, bits...)
	return rows, entries + words
}

// FilterIndices returns the rows covered by r, ascending, via the index.
//
//sdlint:allow ioaccount untracked convenience path for Table.Filter and the bench/equivalence harnesses; the engine's accounted route is storage.Store.FilterRows, which books Lookup's postingsRead
func (ix *Index) FilterIndices(r rule.Rule) []int {
	rows, _ := ix.Lookup(r)
	return rows
}

// Warm builds the index unless it is built: every column's containers, up
// to GOMAXPROCS columns at a time, the caller's goroutine included. Every
// read goes through it, so calling it early only moves the build: the
// server does at dataset registration, so no analyst's first drill-down
// pays it.
func (ix *Index) Warm() {
	ix.once.Do(func() {
		ix.cols = make([]colPostings, len(ix.t.cols))
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
	})
}
