package brs

import (
	"cmp"
	"slices"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// Index-driven counting, the only way a search counts. A search reads a
// whole table — newRunner slices or copies any other view into one — so a
// candidate's coverage is the intersection of the index containers of the
// candidate's instantiated free columns — or its own cover, or its
// parent's cover and one column's container (Covers, below) — and every
// count, expansion, refresh and topW raise walks that intersection. The
// index keeps each (column, value) in one table.Set — a sorted list of its
// rows where the value is sparse, a packed bitset where it is dense — and
// a cover is one too; two kernels read them, each handing its visitor
// the rows it finds, nothing else:
//
//   - Probing (table.EachInAll): a walk of the smallest container that
//     tests each of its rows against the others — one word read where the
//     other is a bitset, a galloping search where it is a list. Cost per
//     candidate is roughly (number of containers) × (smallest's rows) —
//     governed by the most selective column. Where the smallest is itself a
//     bitset its rows are its set bits, read for its words instead of an
//     entry each — its span's, or its summary's and its non-zero words
//     where those are fewer — and it is costed at exactly those words.
//
//   - Bitmap: word-at-a-time AND over bitsets (table.AndEach), handing
//     each common row to the visitor. The kernel reads only the words
//     where every set's span overlaps, or, where fewer, the summary words
//     over them and the data words every set's summary marks non-zero (see
//     table.Bitset) — on a table in tuple order, where rows cluster, a
//     fraction of the universe — and a candidate is costed at the most that
//     books (table.AndWords). Applies, under any aggregate, to candidates
//     whose every container is a bitset.
//
// An expansion pass also routes: siblings — parents holding no cover of
// their own that share a from whose coverage is one Set, its cover or a
// level-1 from's index container — are walked together by one of the two
// kernels over that one Set, and each row it visits is read in the column
// each sibling adds and handed to the sibling whose value it holds, as the
// paper's Algorithm 2 reads a covered tuple's value in every starred
// column, and as H-Mine scans a prefix's projected database once for all
// of its extensions (Pei et al., ICDM 2001) where Eclat would AND the
// prefix's tid-set with each item's (Zaki, IEEE TKDE 2000). A run of
// siblings is routed only where reading the one Set alone costs less than
// what its members' own plans are priced at (expansionUnits).
//
// The base, level 0, instantiates no free column: its coverage is the
// whole table, and it has no container to walk. Under Count its expansion
// reads the masses the index stores beside its extensions' containers
// (table.Index.Mass), not a single row; under Sum one pass over the rows
// sums them (rowPass). Step 1's expansion of level 1 under Count is the
// other pass that walks nothing where the table keeps the index's pair
// masses (table.Index.Pairs): each level-1 rule's extensions' counts are
// a row of a grid (pairPass).
//
// A cost model picks each candidate's kernel by the entries and words it
// books (planCand). Each stage of the index — sizes and masses, then
// containers, and the pair masses — is built whole by its first read
// (table.Index), so the
// choice is purely about read volume, and the same whether or not anyone
// warmed the index first.
//
// Every kernel visits rows ascending — the order a pass over the rows
// meets them in — so accumulated masses are bit-identical whichever kernel
// runs, and the choice is a pure performance decision. A candidate's own
// walk reaches them through one function, walk, and a routed unit through
// route; each is handed the worker's Stats to book what it reads into.
// Planning is the runner's alone: the tests' oracle, package brsref, reads
// every row of every pass and shares none of this file.

// Covers. A walk over a candidate's coverage — an index-route expansion
// walk — can keep the rows it visits. From then on every later walk of that
// candidate — the refresh that re-measures it in a later greedy step, the
// topW raise once it is selected — reads that one container, the cover's
// words or its list entries, and each child the walk created (one
// column more, with the candidate as its from) that holds no cover of its
// own has its coverage as the AND of two containers, the parent's cover and
// the added column's, instead of one container per column: the tid-set
// intersection of Eclat (Zaki, IEEE TKDE 2000), which gets a child's
// tid-set from its parent's and one item's. A level-1 candidate's cover is
// its own index container, held at no cost, which is why its children's two
// containers are the same either way. A cover is a table.Set, like every
// container, so only the metering kernels read it, and its words and
// entries are booked to Stats exactly like the index's. Its rows are kept
// in whichever container reads them in fewer words among those that fit
// what the walk reserved (table.Keeper).
//
// Covers live as long as the run, under one byte budget per run. A walk
// keeps its rows only if the most they could hold — the smallest of the
// containers it walks, in the index's container for that many rows —
// still fits what is left of the budget; that is decided in parent order
// before the walk and settled after it, so which candidates hold covers,
// and so every count of words read, is the same at any worker count.

// coverBudget is the most the covers of one run may hold, in bytes. It is
// a variable only so that a test can lower it.
var coverBudget int64 = 32 << 20

// passUnits, where set, is handed each expansion pass's runner, its
// parents, their plans and the units expansionUnits cut them into, before
// the pass walks a unit; expandParents calls it serially. Like
// coverBudget, it is a variable only for tests: they hold the planner to
// its rule, re-walk a routed unit against its members' own plans, and find
// the poll before a unit (at Workers 1 unit u's is the (u+1)th poll after
// the call). It is the one hook the package calls.
var passUnits func(rn *runner, parents []*cand, plans []candPlan, units []unit)

// reserveCovers decides which parents' walks keep a cover, in parent order,
// and returns what each one reserved of the budget (0: keeps none). A
// parent keeps one when it has no cover yet, is past level 1, has a column
// left to extend by, and the most the index's container for its plan's
// smallest container's rows could hold still fits
// (table.MaxContainerBytes). The walk's rows then take the container that
// reads them in fewer words among those that fit (table.Keeper): a list of
// them always does.
func (rn *runner) reserveCovers(parents []*cand, plans []candPlan, accs [][]extAcc) []int64 {
	reserved := make([]int64, len(parents))
	numRows := rn.tab.NumRows()
	for p, c := range parents {
		if c.cover != nil || c.from == nil || len(accs[p]) == 0 {
			continue
		}
		if most := table.MaxContainerBytes(int(plans[p].rows), numRows); most <= rn.coverLeft {
			rn.coverLeft -= most
			reserved[p] = most
		}
	}
	return reserved
}

// candPlan is the planner's routing decision for one candidate within an
// index-driven pass.
type candPlan struct {
	rows   int64 // the smallest container's rows: the most the walk can visit
	price  int64 // the most the chosen kernel books, words and entries together
	bitmap bool  // true: bitset AND kernel; false: probing walk of the containers
}

// containers appends to sets the Sets whose intersection is c's coverage:
// c's own cover where it holds one; else its from's cover and the
// container of the one column c adds, where that cover is held; else the
// index container of each instantiated free column. planCand costs them
// and walk reads them, so the two cannot disagree.
func (rn *runner) containers(c *cand, sets []table.Set) []table.Set {
	if c.cover != nil {
		return append(sets, *c.cover)
	}
	if c.from != nil && c.from.cover != nil {
		col := rn.addedCol(c)
		return append(sets, *c.from.cover, rn.ix.Container(col, c.r[col]))
	}
	for _, col := range rn.freeCols {
		if v := c.r[col]; v != rule.Star {
			sets = append(sets, rn.ix.Container(col, v))
		}
	}
	return sets
}

// addedCol returns the one column c instantiates that its from does not —
// at level 1, where c has no from, the one free column it instantiates.
func (rn *runner) addedCol(c *cand) int {
	from := rn.baseMask
	if c.from != nil {
		from = c.from.mask
	}
	for _, col := range rn.freeCols {
		if c.r[col] != rule.Star && !from.Has(col) {
			return col
		}
	}
	panic("brs: a candidate adds no column to its from")
}

// readAlone returns what a kernel books to read s alone: AndWords of the
// one bitset — its span's words, or its summary's and its non-zero words —
// or the list's entries.
func readAlone(s table.Set) int64 {
	if s.IsBitset() {
		return table.AndWords([]table.Set{s})
	}
	return int64(s.Len())
}

// planCand picks the kernel for candidate c over its containers by what
// each books, and prices the walk at the most the chosen one books. The
// probing walk reads its driver, the smallest container, alone
// (readAlone), and tests each of the driver's rows against every other
// container: a word where that is a bitset, and, where it is a list, the
// entries galloping advances through, at most the list's. The AND kernel
// applies where every container is a bitset, under any aggregate, and
// reads the words the containers' spans and summaries leave it
// (table.AndWords, the most it books); it wins a tie, the routing every
// pinned read count was recorded under. c instantiates a free column: the
// base is never walked.
func (rn *runner) planCand(c *cand) (plan candPlan) {
	var buf [16]table.Set
	sets := rn.containers(c, buf[:0])
	driver, allDense := 0, true
	for i, set := range sets {
		if size := int64(set.Len()); i == 0 || size < plan.rows {
			plan.rows, driver = size, i
		}
		allDense = allDense && set.IsBitset()
	}
	plan.price = readAlone(sets[driver])
	for i, set := range sets {
		switch {
		case i == driver:
		case set.IsBitset():
			plan.price += plan.rows
		default:
			plan.price += int64(set.Len())
		}
	}
	if allDense {
		and := table.AndWords(sets)
		plan.bitmap, plan.price = and <= plan.price, min(and, plan.price)
	}
	return plan
}

// planIndex plans a pass over cands (counting or generation): one
// planCand a candidate.
func (rn *runner) planIndex(cands []*cand) []candPlan {
	plans := make([]candPlan, len(cands))
	for i, c := range cands {
		plans[i] = rn.planCand(c)
	}
	return plans
}

// walk visits c's coverage through the index, by the kernel plan chose —
// bitset AND or probing walk — over c's containers. It calls visit(row) for
// every covered row in ascending order, and the kernel books the entries
// and words it read into st.
func (rn *runner) walk(c *cand, plan candPlan, st *Stats, visit func(row int)) {
	// Room for the containers of a 16-column rule on the stack; a wider
	// one's grow on the heap.
	var buf [16]table.Set
	sets := rn.containers(c, buf[:0])
	if plan.bitmap {
		table.AndEach(st, sets, visit)
	} else {
		table.EachInAll(st, sets, visit)
	}
}

// fromSet returns, for a parent c that holds no cover, its from's coverage
// where that is one Set — the from's cover, or a level-1 from's one index
// container — which c's siblings share and a routed walk reads. ok is
// false at level 1, which has no from, where c holds a cover, and where
// the from's coverage takes more than one container.
func (rn *runner) fromSet(c *cand) (from table.Set, ok bool) {
	if c.cover != nil || c.from == nil {
		return from, false
	}
	var buf [16]table.Set
	if fs := rn.containers(c.from, buf[:0]); len(fs) == 1 {
		return fs[0], true
	}
	return from, false
}

// maxSiblings is the most parents one routed walk takes: the walk keeps
// that many members' state on the stack.
const maxSiblings = 16

// unit is what one poll of an expansion pass walks: one parent, by its
// plan, or a run of siblings routed from one walk of their from's
// coverage.
type unit struct {
	members []int     // the parents' indices in the pass
	routed  bool      // the members are walked by route, not by their plans
	from    table.Set // routed: the members' from's coverage, read once for all of them
}

// expansionUnits cuts an expansion pass's parents into the units its
// workers walk. Siblings — parents holding no cover of their own whose
// from's coverage is one Set (fromSet) — are grouped by from, in runs of
// at most maxSiblings in parent order, and a run, even of one, is routed
// where reading that Set alone (readAlone) costs less than its members'
// plans are priced at; every other parent is a unit of its own, walked by
// its plan. Units come in the order of their first parent, each with rows,
// the most rows its members book (their plans' rows), which indexPass
// balances its workers by. The cut is a function of the parents and their
// plans alone, never of Workers, so what a pass reads is the same at any
// worker count.
func (rn *runner) expansionUnits(parents []*cand, plans []candPlan) (units []unit, rows []int64) {
	n := len(parents)
	head := make([]int, n) // the first parent of its from's siblings; itself where it is no sibling
	firstOf := make(map[*cand]int)
	units, rows = make([]unit, 0, n), make([]int64, 0, n)
	for p, c := range parents {
		head[p] = p
		if _, ok := rn.fromSet(c); !ok {
			continue
		}
		if h, seen := firstOf[c.from]; seen {
			head[p] = h
		} else {
			firstOf[c.from] = p
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(head[a], head[b]) })
	for lo := 0; lo < n; {
		h := head[order[lo]]
		hi, priced, booked := lo, int64(0), int64(0)
		for ; hi < n && hi-lo < maxSiblings && head[order[hi]] == h; hi++ {
			priced += plans[order[hi]].price
			booked += plans[order[hi]].rows
		}
		if from, ok := rn.fromSet(parents[h]); ok && readAlone(from) < priced {
			units = append(units, unit{members: order[lo:hi], routed: true, from: from})
			rows = append(rows, booked)
		} else {
			for i := lo; i < hi; i++ {
				units = append(units, unit{members: order[i : i+1]})
				rows = append(rows, plans[order[i]].rows)
			}
		}
		lo = hi
	}
	return units, rows
}

// routeBlock is how many rows a routed walk gathers before it routes them.
const routeBlock = 512

// route walks a routed unit u: one walk of the members' from's coverage,
// by the AND kernel over its one bitset or the probing walk over its one
// list, booked into st. It gathers the rows the walk visits in blocks and
// reads each block's rows once in each column a member adds — the members
// grouped by column, so a column is read once however many members add it
// — and hands a row to the member of that column whose value it holds, if
// any: booked into its accumulators (accs[j] for the unit's jth member) and
// added to its keeper, keeps[j], where it has one. A member is its from
// and one column's value, so it gets exactly its own rows, ascending, as a
// walk of its own plan hands them to it. The reads of the columns are the
// routing's own and book no cell.
func (rn *runner) route(st *Stats, parents []*cand, u unit, accs *[maxSiblings][]extAcc, keeps *[maxSiblings]*table.Keeper) {
	// The members in order of the column they add: member[i] is the ith
	// one's index in u.members and val[i] the value it adds; the gth run of
	// members that add one column, cells[g], is first[g] up to first[g+1].
	var col, member [maxSiblings]int
	var val [maxSiblings]rule.Value
	n := len(u.members)
	for j, p := range u.members {
		c := parents[p]
		cj := rn.addedCol(c)
		i := j
		for ; i > 0 && col[i-1] > cj; i-- {
			col[i], val[i], member[i] = col[i-1], val[i-1], member[i-1]
		}
		col[i], val[i], member[i] = cj, c.r[cj], j
	}
	var cells [maxSiblings]table.Column
	var first [maxSiblings + 1]int
	runs := 0
	for i := range n {
		if i == 0 || col[i] != col[i-1] {
			cells[runs], first[runs] = rn.tab.Column(col[i]), i
			runs++
		}
	}
	first[runs] = n
	var rows [routeBlock]int32
	nr := 0
	flush := func() {
		st.RoutedReads += int64(runs * nr)
		for g := range runs {
			c, lo, hi := cells[g], first[g], first[g+1]
			if hi == lo+1 {
				// The column's one member takes the rows that hold its value.
				v, acc, k := val[lo], accs[member[lo]], keeps[member[lo]]
				for _, r := range rows[:nr] {
					if c.At(int(r)) == v {
						st.CellsBooked += rn.bookRow(acc, int(r))
						if k != nil {
							k.Add(int(r))
						}
					}
				}
				continue
			}
			for _, r := range rows[:nr] {
				v := c.At(int(r))
				for i := lo; i < hi; i++ {
					if val[i] == v {
						j := member[i]
						st.CellsBooked += rn.bookRow(accs[j], int(r))
						if k := keeps[j]; k != nil {
							k.Add(int(r))
						}
						break
					}
				}
			}
		}
		nr = 0
	}
	visit := func(row int) {
		rows[nr] = int32(row)
		if nr++; nr == routeBlock {
			flush()
		}
	}
	one := [1]table.Set{u.from}
	if u.from.IsBitset() {
		table.AndEach(st, one[:], visit)
	} else {
		table.EachInAll(st, one[:], visit)
	}
	flush()
}

// indexPass is a pass over n candidates in units, unit u visiting at most
// rows[u] rows, each walked by fn(g, u, st) on worker g booking into st,
// one Stats a worker, and those merge into the run's after the pass; the
// pass latches the first error a worker saw. It runs on passWorkers(n)
// workers, each taking a run of whole units in order, the runs cut to
// about equal rows (balance), and polling the context once before each
// unit — before a routed walk of siblings, not before each of its members.
// It fans out candidates, not rows, so it books no read itself.
func (rn *runner) indexPass(n int, rows []int64, fn func(g, u int, st *Stats)) {
	ws := make([]struct {
		st  Stats
		cut error
	}, rn.passWorkers(n))
	walk := func(lo, hi, g int) {
		w := &ws[g]
		for u := lo; u < hi; u++ {
			if w.cut = rn.fired(); w.cut != nil {
				return
			}
			fn(g, u, &w.st)
		}
	}
	runs := balance(rows, len(ws))
	fanOut(len(ws), len(ws), func(g, _, _ int) { walk(runs[g], runs[g+1], g) })
	for _, w := range ws {
		rn.stats.Add(w.st)
		rn.latch(w.cut)
	}
	rn.stats.IndexLevels++
}
