package table

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// the few-valued columns the paper's tables are made of.
//
// The index is built in two stages, each whole — every column in parallel,
// under a sync.Once of its own — by the first read that needs it. The first
// is one counting pass: each value's size and, on a weighted table, its
// mass, which is all PostingsLen and Mass read, so routing a request and
// counting level 1 of a full table never build a container. The second
// fills the containers from those sizes (Container, Lookup, Postings,
// Bitmap, Warm). A search's work therefore never depends on which columns
// an earlier one happened to touch, and no reader ever sees a half-built
// stage. One Index exists per Table (see Table.Index), so every session on
// a shared dataset reuses the same containers instead of re-scanning per
// request; a dataset whose searches read only its distinct-tuple table
// never builds its rows' containers at all.
type Index struct {
	t *Table

	countsOnce sync.Once
	counts     []valueCounts // nil until the first stage

	containersOnce sync.Once
	containers     []columnContainers // nil until the second stage
	built          atomic.Bool        // set once containers is published
}

// valueCounts is one column's first stage: sizes[v] rows hold value v, and
// masses[v], on a weighted table, is the sum of their multiplicities.
type valueCounts struct {
	sizes  []int32
	masses []int64 // nil on an unweighted table, where every mass is its size
}

// columnContainers is one column's second stage. Value v's rows are
// bits[v] where that is non-nil and lists[v] otherwise, never both.
type columnContainers struct {
	lists [][]int32 // ascending rows with Value(c, row) == v; nil where v is dense
	bits  []*Bitset // nil where v is sparse
}

// Index returns the table's inverted index, allocating it on first call.
// The index builds each stage on its first read.
func (t *Table) Index() *Index {
	t.idxOnce.Do(func() { t.idx = &Index{t: t} })
	return t.idx
}

// eachColumn runs fn on every column of the table, up to GOMAXPROCS columns
// at a time, the caller's goroutine included.
func (ix *Index) eachColumn(fn func(c int)) {
	cols := len(ix.t.cols)
	var next atomic.Int32
	work := func() {
		for c := int(next.Add(1)) - 1; c < cols; c = int(next.Add(1)) - 1 {
			fn(c)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), cols); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// valueCounts returns the first stage, building it unless it is built.
func (ix *Index) valueCounts() []valueCounts {
	ix.countsOnce.Do(func() {
		counts := make([]valueCounts, len(ix.t.cols))
		ix.eachColumn(func(c int) {
			col, vals, mult := &ix.t.cols[c], ix.t.dicts[c].Len(), ix.t.mult
			switch col.width {
			case w8:
				counts[c] = countValues(col.u8, vals, mult)
			case w16:
				counts[c] = countValues(col.u16, vals, mult)
			default:
				counts[c] = countValues(col.i32, vals, mult)
			}
		})
		ix.counts = counts
	})
	return ix.counts
}

// countValues is a column's first stage, from one pass over its cells: how
// many rows hold each of its vals values and, where mult is non-nil — a
// weighted table's multiplicity per row — how many tuples.
func countValues[T cell](col []T, vals int, mult []int32) valueCounts {
	vc := valueCounts{sizes: make([]int32, vals)}
	if mult == nil {
		for _, v := range col {
			vc.sizes[v]++
		}
		return vc
	}
	vc.masses = make([]int64, vals)
	for i, v := range col {
		vc.sizes[v]++
		vc.masses[v] += int64(mult[i])
	}
	return vc
}

// columns returns the second stage, building it — and the first, where that
// is not built yet — unless it is built, and telling the table's OnBuild
// hook what the build held and took.
func (ix *Index) columns() []columnContainers {
	ix.containersOnce.Do(func() {
		start := time.Now()
		counts := ix.valueCounts()
		containers := make([]columnContainers, len(ix.t.cols))
		ix.eachColumn(func(c int) {
			col, sizes := &ix.t.cols[c], counts[c].sizes
			switch col.width {
			case w8:
				containers[c] = fillContainers(col.u8, sizes)
			case w16:
				containers[c] = fillContainers(col.u16, sizes)
			default:
				containers[c] = fillContainers(col.i32, sizes)
			}
		})
		ix.containers = containers
		ix.built.Store(true)
		if fn := ix.t.onBuild.Load(); fn != nil {
			(*fn)(BuildReport{Index: true, Rows: ix.t.n, Bytes: ix.bytes(), Elapsed: time.Since(start)})
		}
	})
	return ix.containers
}

// fillContainers is a column's second stage: one pass straight into each
// value's container, sized by the first stage's counts, so every list is
// exact-capacity and ascending by construction and no list is ever built
// for a dense value. The sparse lists are cut from one array: a column of
// tens of thousands of values is one allocation, not one per value.
func fillContainers[T cell](col []T, sizes []int32) columnContainers {
	rows := len(col)
	lists := make([][]int32, len(sizes))
	words := make([][]uint64, len(sizes))
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
	bits := make([]*Bitset, len(sizes))
	for v, w := range words {
		if w != nil {
			bits[v] = newBitset(w, int(sizes[v]))
		}
	}
	return columnContainers{lists: lists, bits: bits}
}

// bytes is what the index holds once its containers are built: the
// containers, and each value's stored size and mass; 0 before, whatever the
// first stage holds (a few bytes a value). It never builds anything.
func (ix *Index) bytes() int64 {
	if !ix.built.Load() {
		return 0
	}
	var n int64
	for c, cc := range ix.containers {
		vc := ix.counts[c]
		n += 4*int64(len(vc.sizes)) + 8*int64(len(vc.masses))
		for v, size := range vc.sizes {
			if b := cc.bits[v]; b != nil {
				n += b.Bytes()
			} else {
				n += 4 * int64(size)
			}
		}
	}
	return n
}

// PostingsLen returns the number of rows holding value v in column c —
// Count(base+(c,v)) on the full table — building the first stage on first
// use, never a container: routing by coverage and level-1 BRS counting
// under the Count aggregate read only these sizes.
func (ix *Index) PostingsLen(c int, v rule.Value) int {
	sizes := ix.valueCounts()[c].sizes
	if v < 0 || int(v) >= len(sizes) {
		return 0
	}
	return int(sizes[v])
}

// Mass returns the rows holding value v in column c summed by their
// multiplicities — Count(base+(c,v)) over the tuples a distinct-tuple table
// stands for — and PostingsLen on an unweighted table. Like PostingsLen it
// is read from the first stage: a level-1 count on a full weighted table
// reads no row and builds no container.
func (ix *Index) Mass(c int, v rule.Value) int64 {
	masses := ix.valueCounts()[c].masses
	if masses == nil {
		return int64(ix.PostingsLen(c, v))
	}
	if v < 0 || int(v) >= len(masses) {
		return 0
	}
	return masses[v]
}

// Container returns value v of column c's one container, building the
// containers on first use: the ascending row list of a sparse value, the
// Bitset of a dense one, neither for a value outside the column's
// dictionary (never produced by Encode/Lookup). Neither may be modified.
// This is how the kernels reach the index (EachInAll takes the pair as it
// comes).
func (ix *Index) Container(c int, v rule.Value) (list []int32, bits *Bitset) {
	cc := &ix.columns()[c]
	if v < 0 || int(v) >= len(cc.bits) {
		return nil, nil
	}
	return cc.lists[v], cc.bits[v]
}

// Postings returns the ascending row list for value v of column c, building
// the containers on first use. A sparse value's list is the index's own and must
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
	AndEach([]*Bitset{bits}, func(row int) { list = append(list, int32(row)) })
	return list
}

// Bitmap returns the packed bitset holding value v's rows in column c, or
// nil when the value is too sparse to be stored as one (see Dense) or
// v is outside the column's dictionary. Builds the containers on first use,
// like Postings.
func (ix *Index) Bitmap(c int, v rule.Value) *Bitset {
	_, bits := ix.Container(c, v)
	return bits
}

// Lookup returns the ascending rows covered by r by intersecting the
// containers of r's instantiated columns (the walk of EachInAll), along with what it read in place of a full scan:
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
	entries, words := EachInAll(lists, func(row int) { rows = append(rows, row) }, bits...)
	return rows, entries + words
}

// FilterIndices returns the rows covered by r, ascending, via the index.
//
//sdlint:allow ioaccount untracked convenience path for Table.Filter and the bench/equivalence harnesses; the engine's accounted route is storage.Store.FilterRows, which books Lookup's postingsRead
func (ix *Index) FilterIndices(r rule.Rule) []int {
	rows, _ := ix.Lookup(r)
	return rows
}

// Warm builds the index's containers unless they are built. Every read of
// a container goes through the same build, so calling it early only moves
// the cost: the benchmark's layer readings time it, and a test that needs
// the containers in hand calls it. Nothing in the engine or the server
// does — a dataset's containers are built by its first search that reads
// rows.
func (ix *Index) Warm() { ix.columns() }
