package brs

import (
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
)

// Index-driven counting. A search reads a whole table — newRunner copies any
// other view into one — so a candidate's coverage is the intersection of
// the index containers of the candidate's instantiated free columns — or
// its own cover, or its parent's cover and one column's container (Covers,
// below) — and counting (and candidate generation, and the topW raise over
// a selected rule) can be answered from the index instead of scanning every
// row. The index keeps each (column, value) in one table.Set — a sorted
// list of its rows where the value is sparse, a packed bitset where it is
// dense — and a cover is one too; two kernels read them, each handing its
// visitor the rows it finds, nothing else:
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
//     books (table.AndWords). Applies under the Count aggregate to
//     candidates whose every container is a bitset.
//
// The base, level 0, instantiates no free column: its coverage is the
// whole table, and it has no container to walk. Under Count its expansion
// reads the masses the index stores beside its extensions' containers
// (table.Index.Mass), not a single row; under Sum the pass that expands it
// scans.
//
// A cost model decides per counting step which access path runs, and per
// candidate which kernel. Scan cost is one visit per row plus the
// anchor-match work the scan kernel pays per candidate (rows sharing the
// candidate's anchor value); kernel costs are the
// entry/word volumes above. Each stage of the index — sizes and masses,
// then containers — is built whole by its first read (table.Index), so the
// decision is purely about read volume, and the same whether or not anyone
// warmed the index first.
//
// Every kernel visits rows ascending — the order a scan visits them — so
// accumulated masses are bit-identical across all the access paths, and
// routing is a pure performance decision. Both index kernels are reached
// through one function, walk, which hands them the worker's Stats to book
// what they read into; the scan is runner.scan. Routing is the runner's
// alone: the tests' oracle, package brsref, reads every row of every pass
// and shares none of this file.

// postingsCostSlack is the fixed per-candidate overhead charged by the
// cost model (list setup, probe and gallop restarts, AND-loop setup).
const postingsCostSlack = 16

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

// indexRoutes lets a search read its table's index. It is a variable only
// so that a test can turn it off and run every pass of a search on the scan
// kernel, which a Sum run's level-1 pass and the passes the planner finds
// cheaper to scan take.
var indexRoutes = true

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
	cost   int64 // estimated entry/word reads for the chosen kernel
	rows   int64 // the smallest container's rows: the most the walk can visit
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
	var cv *table.Set
	if c.from != nil {
		cv = c.from.cover
	}
	if cv != nil {
		sets = append(sets, *cv)
	}
	for _, col := range rn.freeCols {
		if v := c.r[col]; v != rule.Star && (cv == nil || !c.from.mask.Has(col)) {
			sets = append(sets, rn.ix.Container(col, v))
		}
	}
	return sets
}

// planCand costs the index kernels for candidate c over its containers, at
// what each books. The probing walk takes its driver's rows and tests each
// against every other container: a list driver is read an entry a row, a
// dense driver for the words reading it alone books — its span's, or its
// summary's and its non-zero words. The AND kernels read the words the
// containers' spans and summaries leave them (table.AndWords, the most
// they book), and apply where every container is a bitset under Count;
// they win a tie, the routing every pinned read count was recorded under.
// anchor is the posting length of c's anchor column (the scan kernel's
// per-candidate work, see buildCandIndex); ok is false for a rule with no
// instantiated free column, which forces the whole pass to scan.
func (rn *runner) planCand(c *cand) (plan candPlan, anchor int64, ok bool) {
	for _, col := range rn.freeCols {
		if v := c.r[col]; v != rule.Star {
			anchor, ok = int64(rn.ix.PostingsLen(col, v)), true // first instantiated free column = scan anchor
			break
		}
	}
	if !ok {
		return candPlan{}, 0, false
	}
	var buf [16]table.Set
	sets := rn.containers(c, buf[:0])
	driver, allDense := 0, rn.countAgg
	for i, set := range sets {
		if size := int64(set.Len()); i == 0 || size < plan.rows {
			plan.rows, driver = size, i
		}
		allDense = allDense && set.IsBitset()
	}
	drive := plan.rows
	if sets[driver].IsBitset() {
		drive = table.AndWords(sets[driver : driver+1])
	}
	plan.cost = drive + int64(len(sets)-1)*plan.rows + postingsCostSlack
	if allDense {
		if bmCost := table.AndWords(sets) + postingsCostSlack; bmCost <= plan.cost {
			plan.cost, plan.bitmap = bmCost, true
		}
	}
	return plan, anchor, true
}

// planIndex decides scan vs index for a pass over cands (counting or
// generation), returning per-candidate kernel choices when the index path
// wins and nil when the pass scans: the kernels' total estimated read
// volume must undercut one scan of the table, where the scan is charged its
// row visits plus each candidate's anchor-match work (anchor posting
// length).
func (rn *runner) planIndex(cands []*cand) []candPlan {
	if rn.ix == nil || len(cands) == 0 {
		return nil
	}
	total := int64(0)
	var anchors int64
	plans := make([]candPlan, len(cands))
	for i, c := range cands {
		plan, anchor, ok := rn.planCand(c)
		if !ok {
			return nil
		}
		plans[i] = plan
		total += plan.cost
		anchors += anchor
	}
	if total >= int64(rn.tab.NumRows())+anchors {
		return nil
	}
	return plans
}

// planPostingsOne is the planner for a single rule's coverage walk (the
// topW raise over a selected rule). The walk's visit work is identical on
// every path, so the decision weighs only enumeration cost: posting
// entries or bitmap words versus one row scan.
func (rn *runner) planPostingsOne(c *cand) (plan candPlan, ok bool) {
	if rn.ix == nil {
		return candPlan{}, false
	}
	plan, _, ok = rn.planCand(c)
	return plan, ok && plan.cost < int64(rn.tab.NumRows())
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

// indexPass is a pass routed through the index over n candidates: workers
// take whole candidates, in order, polling the context before each
// (polled), and fn(g, i, st) walks candidate i on worker g booking into st,
// one Stats a worker, and those merge into the run's after the pass. It
// fans out candidates, not rows, so it books no read itself.
func (rn *runner) indexPass(n int, fn func(g, i int, st *Stats)) {
	stats := make([]Stats, rn.rowWorkers(n))
	rn.polled(n, len(stats), 1, func(i, _, g int) { fn(g, i, &stats[g]) })
	for _, st := range stats {
		rn.stats.Add(st)
	}
	rn.stats.IndexLevels++
}
