package table

import (
	"cmp"
	"slices"
	"time"
)

// The distinct-tuple table. A search's answer depends only on the multiset
// of tuples it reads, and the paper's tables are categorical with a handful
// of values per column: a hundred thousand census rows over seven columns
// hold a few thousand distinct tuples. Grouping the table by all of its
// columns once — the finest cuboid of a data cube — lets every later pass
// read each tuple once, carrying its multiplicity as the tuple's mass
// (Section 6.3), instead of once per row that repeats it.
//
// Every grouped table is laid out in tuple order (see sortTuples), whatever
// order its rows came in. Sorting a table packs each value's rows into runs
// (Lemire, Kaser & Aouiche, "Sorting improves word-aligned bitmap indexes",
// DKE 2010): the first column's values each fill one contiguous stretch, the
// next column's a stretch within each of those, and so on. An index bitset,
// and the cover a walk keeps of a rule's rows, then holds its rows in fewer
// words, and the AND kernels read only the words where all of their
// bitsets' spans overlap (see Bitset). Taking the smallest dictionaries
// first makes the leading runs the longest.

// distinctGiveUp is the compression below which the distinct table is not
// worth having: the build abandons the table as soon as it has seen more
// than NumRows/distinctGiveUp distinct tuples. A wide table (Marketing's
// fourteen columns) crosses the line within its first few thousand rows,
// so finding out costs part of one pass, once. A quarter, not a half: the
// table is kept for the dataset's lifetime beside the rows, and its build
// is a pass over them that only many later searches repay.
const distinctGiveUp = 4

// BuildReport describes how one of a table's two lazy builds resolved: its
// distinct-tuple table (see Distinct), or its index's containers (see
// Index). Each is built once, by the first read that needs it.
type BuildReport struct {
	Index    bool  // the index's containers were built; otherwise the distinct table resolved
	Rows     int   // rows of the table
	Read     int   // rows the distinct build read: Rows, or fewer when it gave up
	Distinct int   // rows of the distinct table; 0 when the table does not compress
	Bytes    int64 // what the built index holds (see ResidentBytes)
	Elapsed  time.Duration
}

// Distinct returns t's distinct-tuple table: one row per distinct tuple of
// t, in tuple order, sharing t's dictionaries (value ids
// and rules mean the same on both), each row carrying the number of t's
// rows equal to it (Multiplicity), with an inverted index of its own, built
// by its first read like any table's. It has no measure columns: only the
// Count aggregate, whose masses stay integral, can be summed per tuple in
// any order.
//
// The table is built by the first call, in one pass over t, and kept for
// t's lifetime; so is the finding that t does not compress (see
// distinctGiveUp), which costs that call the rows it read before giving up
// and every later call nothing. It is nil when t does not compress, or is
// itself a distinct table. The rows the build read are booked into the
// meter of the one call that resolved the table, and of no other, so the
// caller that caused the pass accounts for it.
func (t *Table) Distinct(m Meter) *Table {
	t.distinctOnce.Do(func() {
		start := time.Now()
		var read Tally
		t.distinct = t.GroupRows(&read, nil, t.n/distinctGiveUp)
		m.Book(read.Rows, 0, 0)
		rep := BuildReport{Rows: t.n, Read: int(read.Rows)}
		if t.distinct != nil {
			rep.Distinct = t.distinct.n
		}
		rep.Elapsed = time.Since(start)
		if fn := t.onBuild.Load(); fn != nil {
			(*fn)(rep)
		}
	})
	return t.distinct
}

// OnBuild registers fn to be told, once each, how the distinct table
// resolved and that the index's containers were built — by the goroutine
// whose read resolves the build, before that read returns. A serving layer
// registers its log lines here before it publishes the table; a later
// registration replaces an earlier one.
func (t *Table) OnBuild(fn func(BuildReport)) { t.onBuild.Store(&fn) }

// Multiplicity returns the number of tuples row i stands for: 1 on an
// ordinary table, the count of equal rows in the table it was built from on
// a distinct-tuple table. It is the row's mass under the Count aggregate.
func (t *Table) Multiplicity(i int) int {
	if t.mult == nil {
		return 1
	}
	return int(t.mult[i])
}

// Weighted reports whether some row may stand for more than one tuple,
// i.e. whether t is a distinct-tuple table. Kernels that count rows instead
// of summing masses (posting-list lengths) apply only where it is false.
func (t *Table) Weighted() bool { return t.mult != nil }

// GroupRows groups the given rows of t — nil for all of them — by all
// columns in one pass: the distinct-tuple table of that row list, as
// Distinct describes it, in tuple order, a row listed twice counted twice.
// It is the one grouping routine: Distinct memoises its answer for the whole
// table, a sample of t's rows groups itself with it, and so does the mw
// probe's tally of its draws. The rows it reads are booked into m. The pass
// is abandoned — d nil, the rows it got through booked — at the first tuple
// beyond limit distinct ones; the list's length is booked otherwise, and
// nothing is read at all when limit is not positive or t is itself a
// distinct table.
//
// Tuples are interned in an open-addressing table of distinct-row ids keyed
// by a hash of the row and confirmed by comparing the columns, so any width
// works, then sorted into tuple order, which depends on the tuples alone.
// The table starts small and doubles; limit caps it at 4·limit slots.
func (t *Table) GroupRows(m Meter, rows []int, limit int) *Table {
	if limit <= 0 || t.mult != nil {
		return nil
	}
	n := t.n
	if rows != nil {
		n = len(rows)
	}
	cols := make([]column, len(t.cols))
	for c := range cols {
		cols[c].width = t.cols[c].width
	}
	var (
		mult   []int32
		hashes []uint64 // by distinct-row id
		slots  = make([]int32, 1024)
	)
	for k := 0; k < n; k++ {
		i := k
		if rows != nil {
			i = rows[k]
		}
		var h uint64
		for c := range t.cols {
			h = (h ^ uint64(uint32(t.cols[c].at(i)))) * 0x9E3779B97F4A7C15
		}
		h ^= h >> 32
		mask := uint64(len(slots) - 1)
	probe:
		for j := h & mask; ; j = (j + 1) & mask {
			id := int(slots[j]) - 1 // id + 1 is stored; 0 marks an empty slot
			switch {
			case id < 0:
				if len(mult) == limit {
					m.Book(int64(k+1), 0, 0)
					return nil
				}
				for c := range t.cols {
					cols[c].append(t.cols[c].at(i))
				}
				mult = append(mult, 1)
				hashes = append(hashes, h)
				slots[j] = int32(len(mult))
				if 2*len(mult) > len(slots) {
					slots = regrow(slots, hashes)
				}
				break probe
			case hashes[id] == h && sameTuple(cols, id, t.cols, i):
				mult[id]++
				break probe
			}
		}
	}
	m.Book(int64(n), 0, 0)
	d := &Table{
		colNames: t.colNames,
		dicts:    t.dicts,
		cols:     cols,
		n:        len(mult),
		mult:     mult,
	}
	d.sortTuples()
	return d
}

// sortTuples lays out the rows of t — pairwise different tuples — in tuple
// order: ascending value ids, the column with the smallest dictionary
// deciding first, then the next smallest, equal dictionaries by column index.
// It is a least-significant-digit counting sort, one stable pass per column
// from the largest dictionary to the smallest, O(columns × (rows + values)).
// Each column, and then the multiplicities, is gathered into its new order
// in turn, so only one of them is ever held twice.
func (t *Table) sortTuples() {
	sig := make([]int, len(t.cols)) // the columns, most significant first
	for c := range sig {
		sig[c] = c
	}
	slices.SortStableFunc(sig, func(a, b int) int { return cmp.Compare(t.dicts[a].Len(), t.dicts[b].Len()) })
	perm, next := make([]int, t.n), make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	for k := len(sig) - 1; k >= 0; k-- {
		col := &t.cols[sig[k]]
		at := make([]int, t.dicts[sig[k]].Len()+1) // where each value's rows go next
		for _, i := range perm {
			at[col.at(i)+1]++
		}
		for v := 1; v < len(at); v++ {
			at[v] += at[v-1]
		}
		for _, i := range perm {
			v := col.at(i)
			next[at[v]] = i
			at[v]++
		}
		perm, next = next, perm
	}
	for c := range t.cols {
		t.cols[c] = t.cols[c].gather(perm)
	}
	mult := make([]int32, t.n)
	for j, i := range perm {
		mult[j] = t.mult[i]
	}
	t.mult = mult
}

// SelectWeighted returns the distinct-tuple table holding the given rows of t
// in the given order, row k standing for mult[k] tuples — the weighted
// table of a multiset whose distinct tuples the caller already holds apart,
// as a sample drawn from a distinct-tuple table's rows does, so nothing is
// hashed or compared: the rows are copied out and mult is kept (not
// copied). The rows must be pairwise different tuples; t may be any table.
// The rows copied are booked into m.
func (t *Table) SelectWeighted(m Meter, rows []int, mult []int32) *Table {
	d := &Table{
		colNames: t.colNames,
		dicts:    t.dicts,
		cols:     make([]column, len(t.cols)),
		n:        len(rows),
		mult:     mult,
	}
	for c := range t.cols {
		d.cols[c] = t.cols[c].gather(rows)
	}
	m.Book(int64(len(rows)), 0, 0)
	return d
}

// Ranks returns the running total of a distinct-tuple table's
// multiplicities: Ranks()[j] tuples stand before row j and Ranks()[NumRows()]
// in all, so the tuples row j stands for are numbered Ranks()[j] up to, not
// including, Ranks()[j+1] — the rows of the table t was grouped from, named
// in tuple-major order. Computed by the first call and kept with the table;
// the slice must not be modified.
func (t *Table) Ranks() []int {
	t.ranksOnce.Do(func() {
		t.ranks = make([]int, t.n+1)
		for j := 0; j < t.n; j++ {
			t.ranks[j+1] = t.ranks[j] + t.Multiplicity(j)
		}
	})
	return t.ranks
}

// sameTuple reports whether row i of a equals row j of b, column by column.
func sameTuple(a []column, i int, b []column, j int) bool {
	for c := range a {
		if a[c].at(i) != b[c].at(j) {
			return false
		}
	}
	return true
}

// regrow doubles the slot table and re-files every distinct-row id by its
// stored hash.
func regrow(old []int32, hashes []uint64) []int32 {
	slots := make([]int32, 2*len(old))
	mask := uint64(len(slots) - 1)
	for id, h := range hashes {
		j := h & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = int32(id + 1)
	}
	return slots
}
