package table

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartdrill/internal/rule"
)

// Index is a table's inverted index: for every (column, value) pair, the
// set of rows holding that value, in one Set — a packed Bitset where the
// value is dense enough that the bitmap is the smaller of the two (see
// dense), the sorted list of its rows otherwise. A
// column's index therefore costs Σ over its values of min(4·len, rows/8)
// bytes, and a bitset's summary, where it keeps one, a 64th of its words
// more (see Bitset) — at most four bytes per row whatever the data, and a
// sixteenth for the summaries, and an eighth of a byte per row and value on
// the few-valued columns the paper's tables are made of.
//
// The index is built in three stages, each whole — every column in
// parallel, under a sync.Once of its own — by the first read that needs it.
// The first is one counting pass: each value's size and, on a weighted
// table, its mass, which is all PostingsLen and Mass read, so routing a
// request and counting level 1 of a full table never build a container.
// The second fills the containers from those sizes (Container, Rows,
// Lookup, Postings, Bitmap, Warm). The third, the pair masses (Pairs),
// needs neither: it sums the rows' masses by each pair of values of each
// pair of columns, and only a search's first count of level 2 reads it. A
// search's work therefore never depends on which columns an earlier one
// happened to touch, and no reader ever sees a half-built stage. One Index
// exists per Table (see Table.Index), so every session on a shared dataset
// reuses the same containers instead of re-scanning per request; a dataset
// whose searches read only its distinct-tuple table never builds its rows'
// containers at all.
type Index struct {
	t *Table

	countsOnce sync.Once
	counts     []valueCounts // nil until the first stage

	containersOnce sync.Once
	containers     [][]Set     // per column, a Set per value; nil until the second stage
	built          atomic.Bool // set once containers is published

	pairsOnce sync.Once
	pairs     atomic.Pointer[PairMasses] // nil until the third stage, and where the table keeps none
}

// valueCounts is one column's first stage: sizes[v] rows hold value v, and
// masses[v], on a weighted table, is the sum of their multiplicities.
type valueCounts struct {
	sizes  []int32
	masses []int64 // nil on an unweighted table, where every mass is its size
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
func (ix *Index) columns() [][]Set {
	ix.containersOnce.Do(func() {
		start := time.Now()
		counts := ix.valueCounts()
		containers := make([][]Set, len(ix.t.cols))
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
func fillContainers[T cell](col []T, sizes []int32) []Set {
	rows := len(col)
	sets := make([]Set, len(sizes))
	words := make([][]uint64, len(sizes))
	sparse := 0
	for v, n := range sizes {
		if dense(int(n), rows) {
			words[v] = make([]uint64, (rows+63)/64)
		} else {
			sparse += int(n)
		}
	}
	arena := make([]int32, sparse)
	for v, n := range sizes {
		if words[v] == nil {
			sets[v].list, arena = arena[:0:n], arena[n:]
		}
	}
	for i, v := range col {
		if w := words[v]; w != nil {
			w[i>>6] |= 1 << (uint(i) & 63)
		} else {
			sets[v].list = append(sets[v].list, int32(i))
		}
	}
	for v, w := range words {
		if w != nil {
			sets[v].bits = newBitset(w, int(sizes[v]))
		}
	}
	return sets
}

// bytes is what the index holds once its containers are built — the
// containers, and each value's stored size and mass — and its pair masses
// once they are built; 0 before either, whatever the first stage holds (a
// few bytes a value). It never builds anything.
func (ix *Index) bytes() int64 {
	var n int64
	if pm := ix.pairs.Load(); pm != nil {
		n += pm.Bytes()
	}
	if !ix.built.Load() {
		return n
	}
	for c, sets := range ix.containers {
		vc := ix.counts[c]
		n += 4*int64(len(vc.sizes)) + 8*int64(len(vc.masses))
		for _, s := range sets {
			n += s.Bytes()
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

// Container returns value v of column c's Set, building the containers on
// first use: the empty Set for a value outside the column's dictionary
// (never produced by Encode/Lookup). This is how the kernels reach the
// index.
func (ix *Index) Container(c int, v rule.Value) Set {
	sets := ix.columns()[c]
	if v < 0 || int(v) >= len(sets) {
		return Set{}
	}
	return sets[v]
}

// Postings returns the ascending row list for value v of column c, an
// adapter over Container for callers outside the engine, whose kernels read
// the Set as it is. A sparse value's list is the index's own and must not
// be modified; a dense value's bitset is decoded into a fresh list of
// PostingsLen entries on every call. Values outside the column's dictionary
// yield nil.
func (ix *Index) Postings(c int, v rule.Value) []int32 { return ix.Container(c, v).rows() }

// Bitmap returns the packed bitset holding value v's rows in column c, or
// nil when the value is too sparse to be stored as one (see dense) or v is
// outside the column's dictionary: an adapter over Container, like
// Postings.
func (ix *Index) Bitmap(c int, v rule.Value) *Bitset { return ix.Container(c, v).bits }

// Rows returns the ascending rows covered by r by intersecting the
// containers of r's instantiated columns (the walk of EachInAll), and books
// what it read in place of a full scan into m: posting entries and bitset
// words. The trivial rule yields every row, booked an entry each. The
// smallest container drives the intersection, so cost is bounded by the
// most selective column's coverage — or, where that is dense, by its
// bitset's words — not the table size.
func (ix *Index) Rows(m Meter, r rule.Rule) []int {
	cols := r.InstantiatedColumns()
	if len(cols) == 0 {
		rows := make([]int, ix.t.n)
		for i := range rows {
			rows[i] = i
		}
		m.Book(0, int64(ix.t.n), 0)
		return rows
	}
	sets := make([]Set, len(cols))
	for j, c := range cols {
		sets[j] = ix.Container(c, r[c])
	}
	// Non-nil also when nothing is covered: a nil row list means "all rows"
	// to View, the opposite of an empty coverage set. A single column's
	// coverage is its container's size; an intersection's is found out.
	rows := []int{}
	if len(cols) == 1 {
		rows = make([]int, 0, ix.PostingsLen(cols[0], r[cols[0]]))
	}
	EachInAll(m, sets, func(row int) { rows = append(rows, row) })
	return rows
}

// Lookup is Rows returning what it booked, entries and words summed: the
// benchmark's layer reading of the lookup (bench/drillload) calls it; the
// engine calls Rows.
func (ix *Index) Lookup(r rule.Rule) (rows []int, postingsRead int64) {
	var read Tally
	rows = ix.Rows(&read, r)
	return rows, read.Entries + read.Words
}

// PairMasses is an index's third stage: for every pair of columns a < b,
// a d_a × d_b grid holding, for each value va of a and vb of b, the mass of
// the rows holding both — their count, or on a weighted table their
// multiplicities summed. The grids are a categorical table's 2-D cuboids
// (Gray et al., "Data Cube", ICDE 1996), and the count of every one-column
// extension of a level-1 rule over a whole table, as Mass is of the base's.
type PairMasses struct {
	dims  []int   // per column, the values its grids were sized for
	at    []int   // grid (a, b), a < b, starts at cells[at[a·columns+b]]
	cells []int64 // every grid, row va of (a, b) one run of d_b masses
}

// Pairs returns the index's pair masses, building them unless they are
// built: nil where the table keeps none. A table keeps them only where its
// grids take at most one entry a row — Σ over pairs of columns of d_a·d_b
// at most the table's rows, d its dictionaries' sizes — so the stage never
// holds more entries than one more index column's lists would. Its one
// pass over the rows adds a row's mass once for each pair of columns: half
// the cells that walking every level-1 rule's rows books to count level 2
// from them, a row's for each column and each column it adds. A table
// narrower than two columns keeps none either. PostingsLen, Mass and Warm
// never build the stage, and it builds no other; the table's OnBuild hook,
// or a distinct-tuple table's source's, is told what it holds and took.
func (ix *Index) Pairs() *PairMasses {
	ix.pairsOnce.Do(func() {
		t := ix.t
		cols := len(t.cols)
		if cols < 2 {
			return
		}
		start := time.Now()
		pm := &PairMasses{dims: make([]int, cols), at: make([]int, cols*cols)}
		for c := range pm.dims {
			pm.dims[c] = t.dicts[c].Len()
		}
		entries := 0
		for a := range cols {
			for b := a + 1; b < cols; b++ {
				pm.at[a*cols+b] = entries
				if entries += pm.dims[a] * pm.dims[b]; entries > t.n {
					return
				}
			}
		}
		pm.cells = make([]int64, entries)
		ix.eachColumn(func(a int) {
			for b := a + 1; b < cols; b++ {
				grid := pm.cells[pm.at[a*cols+b]:][:pm.dims[a]*pm.dims[b]]
				fillPair(&t.cols[a], &t.cols[b], pm.dims[b], t.mult, grid)
			}
		})
		ix.pairs.Store(pm)
		hook := t
		if t.source != nil {
			hook = t.source
		}
		if fn := hook.onBuild.Load(); fn != nil {
			(*fn)(BuildReport{Index: true, Pairs: cols * (cols - 1) / 2, Rows: t.n, Bytes: pm.Bytes(), Elapsed: time.Since(start)})
		}
	})
	return ix.pairs.Load()
}

// fillPair adds up grid (a, b) in one pass over columns a and b: each row's
// mass — 1, or its multiplicity where mult is non-nil — into the cell of
// its two values, a's value its row of the grid and b's, one of db, its
// place in that row.
func fillPair(a, b *column, db int, mult []int32, grid []int64) {
	switch a.width {
	case w8:
		fillPairFrom(a.u8, b, db, mult, grid)
	case w16:
		fillPairFrom(a.u16, b, db, mult, grid)
	default:
		fillPairFrom(a.i32, b, db, mult, grid)
	}
}

func fillPairFrom[A cell](a []A, b *column, db int, mult []int32, grid []int64) {
	switch b.width {
	case w8:
		fillPairCells(a, b.u8, db, mult, grid)
	case w16:
		fillPairCells(a, b.u16, db, mult, grid)
	default:
		fillPairCells(a, b.i32, db, mult, grid)
	}
}

func fillPairCells[A, B cell](a []A, b []B, db int, mult []int32, grid []int64) {
	b = b[:len(a)]
	if mult == nil {
		for i, va := range a {
			grid[int(va)*db+int(b[i])]++
		}
		return
	}
	mult = mult[:len(a)]
	for i, va := range a {
		grid[int(va)*db+int(b[i])] += int64(mult[i])
	}
}

// Mass returns the mass of the rows holding va in column a and vb in
// column b, in either order of the two columns, which must differ.
func (pm *PairMasses) Mass(a int, va rule.Value, b int, vb rule.Value) int64 {
	if a > b {
		a, va, b, vb = b, vb, a, va
	}
	return pm.cells[pm.at[a*len(pm.dims)+b]+int(va)*pm.dims[b]+int(vb)]
}

// Bytes is what the grids hold: eight bytes a cell.
func (pm *PairMasses) Bytes() int64 { return 8 * int64(len(pm.cells)) }

// Warm builds the index's containers unless they are built. Every read of
// a container goes through the same build, so calling it early only moves
// the cost: the benchmark's layer readings time it, and a test that needs
// the containers in hand calls it. Nothing in the engine or the server
// does — a dataset's containers are built by its first search that reads
// rows.
func (ix *Index) Warm() { ix.columns() }
