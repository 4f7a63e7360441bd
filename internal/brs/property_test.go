package brs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Property layer for the counting kernels: the fast path must be
// bit-identical to package brsref — the paper's per-step algorithm over the
// rows, sharing no code with the runner — and read the same at every worker
// count, on view shapes chosen so that each planner arm (bitmap, probing
// walk) and Sum's row pass is the one that runs. Arms are selected by input
// shape, the way production selects them, and every cell asserts its arm
// engaged, so the matrix cannot silently degenerate into testing one arm
// under many names. A search of a sub-view is a search of its copy: every
// cell must also return, field for field, what the same search over Select
// of the view's rows returns, having read exactly what that search read
// plus the one pass that copied them — or nothing more, where they are one
// run of the table's rows, which the search reads as a slice. CI runs this file under -race (the
// Equivalence|Parallel job), so the lazy shared index build, the bitset
// containers and the workers' fan-out are all exercised for data races,
// not just for answers.

// armShape is one arm-forcing input: a view with the options and weighter
// that go with it, the work its arm rules out, and the evidence its arm ran.
type armShape struct {
	name    string
	view    *table.View
	rows    *table.View // when view is of a distinct-tuple table: the same tuples, one per row
	w       weight.Weighter
	opts    Options
	forbid  func(Stats) bool // nil: nothing ruled out
	engaged func(Stats) bool
}

// TestEquivalencePropertyMatrix: seeded random tables × arm-forcing view
// shapes × Workers ∈ {1, 2, 8}, every cell bit-identical to brsref, its
// Stats the same at every worker count.
// Skewed value distributions make some values dense (one bitset each:
// probed, or walked by its set bits where it drives) and others sparse (one
// posting list each: read by entry, galloped).
func TestEquivalencePropertyMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		for _, sh := range matrixShapes(t, rng, trial) {
			want := scaled(oracleRun(sh.view, sh.w, sh.opts), sh.opts.SampleScale)
			if sh.rows != nil {
				sameResults(t, fmt.Sprintf("trial %d %s: the oracle over the rows", trial, sh.name), scaled(oracleRun(sh.rows, sh.w, sh.opts), sh.opts.SampleScale), want)
			}
			rows := rowsOf(sh.view)
			whole := slices.Equal(rows, rowsOf(sh.view.Table().All()))
			run := oneRun(rows)
			copied := sh.view.Table().Select(rows).All()
			var serial Stats
			for _, workers := range []int{1, 2, 8} {
				opts := sh.opts
				opts.Workers = workers
				got, stats, err := Run(sh.view, sh.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("trial %d %s workers=%d", trial, sh.name, workers)
				sameResults(t, label, got, want)
				fromCopy, copyStats, err := Run(copied, sh.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, fromCopy) {
					t.Fatalf("%s: results\n%v\nthe copy's\n%v", label, got, fromCopy)
				}
				if !whole && !run {
					copyStats.Passes++
					copyStats.RowsScanned += int64(len(rows))
					if sh.opts.SampleScale != 0 {
						copyStats.SampledRowsScanned += int64(len(rows))
					}
				}
				if stats != copyStats {
					t.Fatalf("%s: stats\n%+v\nwant the copy's and its pass\n%+v", label, stats, copyStats)
				}
				if workers == 1 {
					serial = stats
				} else if stats != serial {
					t.Fatalf("%s: stats\n%+v\nat Workers 1\n%+v", label, stats, serial)
				}
				if sh.forbid != nil && sh.forbid(stats) {
					t.Fatalf("%s: did work its shape rules out: %+v", label, stats)
				}
				if !sh.engaged(stats) {
					t.Fatalf("%s: the shape's arm never engaged: %+v", label, stats)
				}
			}
		}
	}
}

// matrixShapes builds trial's tables and the arm-forcing shapes over
// them, drawing from rng as TestEquivalencePropertyMatrix does.
func matrixShapes(t *testing.T, rng *rand.Rand, trial int) []armShape {
	cols := 3 + rng.Intn(2)
	n := 1500 + rng.Intn(1500)
	tab := skewedTable(rng, cols, 3+rng.Intn(3), n)
	size := weight.NewSize(cols)
	var w weight.Weighter = size
	if trial%2 == 1 {
		w = weight.BitsFor(tab)
	}
	mw := w.MaxWeight(3)

	// Child view: an index-backed rule filter, the way a session serves
	// a rule drill-down (ascending rows, a strict subset of the table).
	base := rule.Trivial(cols).With(0, 0)
	// Probe view: rows drawn with replacement (the mw estimator's
	// shape) — in no order, a row drawn twice listed twice.
	probe := make([]int, n/2)
	for i := range probe {
		probe[i] = rng.Intn(n)
	}
	// Every row of the table, last first; a tenth of the rows, each
	// listed twice, in order; and a row sample of a quarter, drawn
	// without replacement and in order as a sample handler serves one,
	// its counts scaled to the table.
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	var twice, sample []int
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			twice = append(twice, i, i)
		}
		if rng.Intn(4) == 0 {
			sample = append(sample, i)
		}
	}
	sampleScale := float64(n) / float64(len(sample))
	// A copy reads its own index: the copy's pass, then index levels.
	copiedIndexed := func(s Stats) bool { return s.Passes > 0 && s.IndexLevels > 0 }
	// Under Sum the bitset AND kernel cannot run: every index read is
	// the intersection walk's. Where every
	// value the walk can meet is dense there is no posting list to read
	// an entry of — the driver's rows are its bitset's set bits — and
	// where every one is sparse there is no bitset to read a word of.
	walk := func(s Stats) bool { return s.IndexLevels > 0 && s.PostingsRead+s.BitmapWordsRead > 0 }
	denseWalk := func(s Stats) bool { return s.IndexLevels > 0 && s.BitmapWordsRead > 0 }
	noEntries := func(s Stats) bool { return s.PostingsRead != 0 }
	// tab without its skewed first column: a few uniform values a column,
	// every one of them dense.
	flat, err := tab.Project(tab.ColumnNames()[1:])
	if err != nil {
		t.Fatal(err)
	}
	// Forty values a column: every one but the skewed column's favourite
	// is sparse.
	thin := skewedTable(rand.New(rand.NewSource(int64(trial)+200)), 3, 40, n)
	// Irrational weights: a marginal is a sum of products no ± delta
	// bookkeeping could keep exact, only a recount in row order.
	per := make([]float64, cols)
	for c := range per {
		per[c] = 0.5 + float64(c)*0.75
	}
	frac := weight.NewLinear(per, 1.3, "frac")
	// A duplicated column makes every rule over it a twin of another
	// with exactly the same mass: steps ≥ 2 tie cached candidates with
	// freshly counted ones to the last bit.
	dup := withDuplicateColumn(tab, 1)
	multiStep := func(s Stats) bool { return s.CandidatesReused > 0 && s.IndexLevels > 0 }
	// A table of few distinct tuples, and its distinct-tuple table: Count
	// over rows that each weigh their multiplicity. A kernel that counts
	// rows where it should sum masses — a posting-list length, a
	// popcount, a count++ — disagrees with brsref, which sums Agg.Mass
	// row by row; and either must return what the rows give.
	heavy := skewedTable(rand.New(rand.NewSource(int64(trial)+100)), 4, 4, n)
	weighted := heavy.Distinct(new(table.Tally))
	if weighted == nil {
		t.Fatalf("trial %d: %d rows over at most 320 tuples did not compress", trial, n)
	}
	heavyW := w
	if trial%2 == 1 {
		heavyW = weight.BitsFor(heavy)
	}
	heavyBase := rule.Trivial(4).With(0, 0)
	// A rule over the tuples' most significant column covers one run of
	// them, which the search reads as a slice: no pass, no row.
	lead := 0
	for c := 1; c < 4; c++ {
		if weighted.DistinctCount(c) < weighted.DistinctCount(lead) {
			lead = c
		}
	}
	leadBase := rule.Trivial(4).With(lead, weighted.Value(lead, weighted.NumRows()/2))
	return []armShape{
		{name: "full-count", view: tab.All(), w: w,
			opts:    Options{K: 4, MaxWeight: mw},
			engaged: func(s Stats) bool { return s.BitmapWordsRead > 0 }},
		// Six rules: the lazy refresh runs across five steps.
		{name: "k6", view: tab.All(), w: w,
			opts: Options{K: 6, MaxWeight: mw}, engaged: multiStep},
		{name: "fractional", view: tab.All(), w: frac,
			opts: Options{K: 4, MaxWeight: frac.MaxWeight(3)}, engaged: multiStep},
		{name: "dup-column", view: dup.All(), w: weight.NewSize(cols + 1),
			opts: Options{K: 5, MaxWeight: 3}, engaged: multiStep},
		// A sorted sub-view under Count, copied, its free columns all
		// dense: no posting entry to read.
		{name: "child", view: tab.ViewOf(tab.FilterIndices(base)), w: w,
			opts:    Options{K: 4, MaxWeight: mw, Base: base, BaseCovered: true},
			forbid:  noEntries,
			engaged: func(s Stats) bool { return copiedIndexed(s) && denseWalk(s) }},
		{name: "permuted", view: tab.ViewOf(reversed), w: w,
			opts: Options{K: 4, MaxWeight: mw}, engaged: copiedIndexed},
		{name: "duplicates", view: tab.ViewOf(twice), w: w,
			opts: Options{K: 4, MaxWeight: mw}, engaged: copiedIndexed},
		{name: "row-sample", view: tab.ViewOf(sample), w: w,
			opts:    Options{K: 4, MaxWeight: mw, SampleScale: sampleScale},
			engaged: func(s Stats) bool { return copiedIndexed(s) && s.SampledRowsScanned == s.RowsScanned }},
		{name: "sum", view: tab.All(), w: size,
			opts: Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}}, engaged: walk},
		// Fractional masses under irrational weights: no sum is exact, so
		// only summing every accumulator in row order, at any worker
		// count, keeps the last ulp. Level 1 is the one row pass.
		{name: "sum-fractional", view: tab.All(), w: frac,
			opts:    Options{K: 4, MaxWeight: frac.MaxWeight(3), Agg: score.SumAgg{Measure: 2}},
			engaged: func(s Stats) bool { return s.Passes == 1 && walk(s) }},
		// And over a copied child: the copy's pass, then the row pass.
		{name: "sum-fractional-child", view: tab.ViewOf(tab.FilterIndices(base)), w: frac,
			opts:    Options{K: 4, MaxWeight: frac.MaxWeight(3), Base: base, BaseCovered: true, Agg: score.SumAgg{Measure: 2}},
			engaged: func(s Stats) bool { return s.Passes == 2 && walk(s) }},
		// Zero and negative masses: an extension exists because a row
		// was seen, whatever its mass sums to.
		{name: "sum-signed", view: tab.All(), w: size,
			opts: Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 1}}, engaged: walk},
		// The whole table under Sum, every value dense: bitset drivers
		// again, this time because of the aggregate.
		{name: "sum-dense", view: flat.All(), w: weight.NewSize(cols - 1),
			opts:   Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}},
			forbid: noEntries, engaged: denseWalk},
		// And nearly every value sparse: list drivers, galloped lists.
		{name: "sum-sparse", view: thin.All(), w: weight.NewSize(3),
			opts:    Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}},
			engaged: func(s Stats) bool { return s.IndexLevels > 0 && s.PostingsRead > 0 }},
		{name: "weighted-count", view: weighted.All(), w: heavyW, rows: heavy.All(),
			opts: Options{K: 6, MaxWeight: heavyW.MaxWeight(3)}, engaged: multiStep},
		{name: "weighted-child", view: weighted.ViewOf(weighted.FilterIndices(heavyBase)), w: heavyW,
			rows:    heavy.ViewOf(heavy.FilterIndices(heavyBase)),
			opts:    Options{K: 4, MaxWeight: heavyW.MaxWeight(3), Base: heavyBase, BaseCovered: true},
			engaged: func(s Stats) bool { return s.RowsScanned+s.PostingsRead > 0 }},
		{name: "weighted-run", view: weighted.ViewOf(weighted.FilterIndices(leadBase)), w: heavyW,
			rows:    heavy.ViewOf(heavy.FilterIndices(leadBase)),
			opts:    Options{K: 4, MaxWeight: heavyW.MaxWeight(3), Base: leadBase, BaseCovered: true},
			engaged: func(s Stats) bool { return s.Passes == 0 && s.RowsScanned == 0 && s.IndexLevels > 0 }},
		{name: "probe", view: tab.ViewOf(probe), w: w,
			opts: Options{K: 4, MaxWeight: mw}, engaged: copiedIndexed},
	}
}

// oneRun reports whether rows are the ascending run rows[0], rows[0]+1, ….
func oneRun(rows []int) bool {
	for i, r := range rows {
		if r != rows[0]+i {
			return false
		}
	}
	return len(rows) > 0
}

// rowsOf lists the rows of its table v holds, in view order.
func rowsOf(v *table.View) []int {
	rows := make([]int, v.NumRows())
	for i := range rows {
		rows[i] = v.ParentRow(i)
	}
	return rows
}

// scaled is rs with every Count and MCount times scale, as a search under
// SampleScale emits them; 0 leaves rs as it is.
func scaled(rs []Result, scale float64) []Result {
	if scale == 0 {
		return rs
	}
	out := slices.Clone(rs)
	for i := range out {
		out[i].Count *= scale
		out[i].MCount *= scale
	}
	return out
}

// skewedTable builds a random table whose first column concentrates 85%
// of its mass on one value — its posting list is dense enough for a
// bitmap container — while the remaining columns draw uniformly, leaving
// a mix of dense and sparse lists for the planner to choose between. Three
// measure columns ride along for the Sum shapes: M, small positive
// integers; Z, integers in [−2, 5] (zeros and negatives included); and F,
// sevenths in [0, 14.3), no sum of which is exact. Z and F follow the row
// number and leave the random stream alone.
func skewedTable(rng *rand.Rand, cols, vals, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, []string{"M", "Z", "F"})
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		if rng.Intn(100) < 85 {
			row[0] = "a"
		} else {
			row[0] = string(rune('b' + rng.Intn(vals)))
		}
		for c := 1; c < cols; c++ {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		b.MustAddRow(row, float64(1+rng.Intn(9)), float64((i*7+3)%8-2), float64(i*37%101)/7)
	}
	return b.Build()
}

// withDuplicateColumn returns tab with column c repeated as a last column.
func withDuplicateColumn(tab *table.Table, c int) *table.Table {
	names := append(append([]string{}, tab.ColumnNames()...), tab.ColumnNames()[c]+"'")
	b := table.MustBuilder(names, tab.MeasureNames())
	row := make([]string, len(names))
	measures := make([]float64, len(tab.MeasureNames()))
	for i := 0; i < tab.NumRows(); i++ {
		for j := 0; j < tab.NumCols(); j++ {
			row[j] = tab.Dict(j).Decode(tab.Value(j, i))
		}
		row[len(row)-1] = row[c]
		for m := range measures {
			measures[m] = tab.Measure(m)[i]
		}
		if err := b.AddRow(row, measures); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// TestEquivalenceWeightedKernelsSumMasses drives the two counting kernels
// of a refresh directly: over a distinct-tuple table, after a selection,
// both the bitset kernel and the probing walk must return the
// multiplicities' sum, not the number of rows.
func TestEquivalenceWeightedKernelsSumMasses(t *testing.T) {
	tab := groupTable([]string{"A", "B", "C"},
		group{cells: []string{"a1", "b1", "c1"}, n: 40},
		group{cells: []string{"a1", "b1", "c2"}, n: 7},
		group{cells: []string{"a1", "b2", "c1"}, n: 12},
		group{cells: []string{"a2", "b1", "c1"}, n: 5},
		group{cells: []string{"a2", "b2", "c2"}, n: 30})
	d := tab.Distinct(new(table.Tally))
	if d == nil || d.NumRows() != 5 {
		t.Fatalf("distinct table %v, want 5 rows", d)
	}
	w := weight.NewSize(3)
	for _, bitmap := range []bool{true, false} {
		rn, err := newRunner(d.All(), w, Options{MaxWeight: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rn.findBestMarginal()
		rn.applySelection(rn.lookup(mustRule(t, tab, map[string]string{"C": "c1"})))
		rn.raiseTopW()
		c := rn.lookup(mustRule(t, tab, map[string]string{"A": "a1", "B": "b1"}))
		if c == nil {
			t.Fatal("(a1,b1,?) was never generated")
		}
		c.count, c.marginal = 0, 0
		rn.countCandidates([]*cand{c}, []candPlan{{bitmap: bitmap}})
		// 47 tuples in 2 rows; selecting (?,?,c1) at weight 1 leaves the 40
		// of them it covers a marginal of 1 each.
		if wantMarginal := 1.0*40 + 2*7; c.count != 47 || c.marginal != wantMarginal {
			t.Fatalf("bitmap=%v: (a1,b1,?) counted %v with marginal %v, want 47 and %v",
				bitmap, c.count, c.marginal, wantMarginal)
		}
	}
}

// TestPlannerRoutedWalksReadLess holds the planner to its rule on the
// TestEquivalencePropertyMatrix shapes at Workers 1, 2 and 8, and on tables
// made for the arms the matrix does not reach. Every routed unit is
// cover-less siblings of one from, at most maxSiblings, whose from's one
// Set costs less to read alone (readAlone) than their own plans are priced
// at; routed into fresh accumulators (checkRouted), it books exactly that
// cost and hands each member exactly the rows, in the order, and so the
// sums, a walk of the member's own plan gives it. Every pass's units are
// the same at every worker count, because the cut is a function of the
// pass's parents, never of Workers. Across the matrix, routed units read a
// from's cover and a level-1 from's container, and a bitset and a list of
// each; listFromTable adds a list cover, and spreadSiblingsTable a run of
// siblings the planner must walk by their plans.
func TestPlannerRoutedWalksReadLess(t *testing.T) {
	var passes [][]string // each pass's units: routed or not, and the parents' keys
	var bad []string
	arms := map[string]int{}
	defer func() { passUnits = nil }()
	passUnits = func(rn *runner, parents []*cand, plans []candPlan, units []unit) {
		var cut []string
		for _, u := range units {
			keys := make([]string, len(u.members))
			for j, p := range u.members {
				keys[j] = parents[p].key
			}
			cut = append(cut, fmt.Sprint(u.routed, keys))
			if !u.routed {
				continue
			}
			if err := checkRouted(rn, parents, plans, u); err != nil {
				bad = append(bad, err.Error())
			}
			from := parents[u.members[0]].from
			arms[fmt.Sprintf("from's cover %v, bitset %v", from.cover != nil, u.from.IsBitset())]++
			for _, p := range u.members {
				col := rn.addedCol(parents[p])
				arms[fmt.Sprintf("added bitset %v", rn.ix.Container(col, parents[p].r[col]).IsBitset())]++
			}
		}
		passes = append(passes, cut)
	}
	routed := 0
	check := func(label string, sh armShape) [][]string {
		var serial [][]string
		for _, workers := range []int{1, 2, 8} {
			opts := sh.opts
			opts.Workers = workers
			passes, bad = nil, nil
			if _, _, err := Run(sh.view, sh.w, opts); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s workers=%d", label, workers)
			if len(bad) > 0 {
				t.Fatalf("%s: routed units that break the planner's rule:\n%s", label, strings.Join(bad, "\n"))
			}
			if workers == 1 {
				serial = passes
				for _, cut := range passes {
					for _, u := range cut {
						if strings.HasPrefix(u, "true") {
							routed++
						}
					}
				}
			} else if !reflect.DeepEqual(passes, serial) {
				t.Fatalf("%s: expansion units\n%v\nat Workers 1\n%v", label, passes, serial)
			}
		}
		return serial
	}
	rng := rand.New(rand.NewSource(61))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		for _, sh := range matrixShapes(t, rng, trial) {
			check(fmt.Sprintf("trial %d %s", trial, sh.name), sh)
		}
	}
	check("list cover", armShape{view: listFromTable().All(), w: weight.NewSize(4), opts: Options{K: 3}})
	for _, arm := range []string{"from's cover true, bitset true", "from's cover true, bitset false",
		"from's cover false, bitset true", "from's cover false, bitset false", "added bitset true", "added bitset false"} {
		if arms[arm] == 0 {
			t.Errorf("no routed unit with %s", arm)
		}
	}
	t.Logf("%d routed walks at Workers 1; %v", routed, arms)

	// Two dense siblings at the two ends of the table: walked together they
	// would read the whole of their from's container, more than both their
	// plans.
	spread := spreadSiblingsTable()
	units := check("spread siblings", armShape{view: spread.All(), w: weight.NewSize(3), opts: Options{K: 3}})
	alone := func(b string) string {
		return fmt.Sprint(false, []string{mustRule(t, spread, map[string]string{"A": "a0", "B": b}).Key()})
	}
	if !slices.ContainsFunc(units, func(cut []string) bool {
		return slices.Contains(cut, alone("b1")) && slices.Contains(cut, alone("b2"))
	}) {
		t.Fatalf("no pass walks the spread siblings each by its plan: %v", units)
	}
}

// TestRoutedWalkAllocatesNothing: a routed unit's walk keeps its one Set,
// its members' accumulators and keepers and their column groups on the
// stack, and books its rows into accumulators and keepers that exist
// before it starts, so it allocates nothing — walked as a pass walks it
// (walkUnit, where it keeps no cover), and routed with a keeper for every
// member — over a bitset, the first routed unit of the census root search
// (rootSearchTable), and over a list, the first of listFromTable's.
func TestRoutedWalkAllocatesNothing(t *testing.T) {
	defer func() { passUnits = nil }()
	for _, tab := range []*table.Table{rootSearchTable(t), listFromTable()} {
		walked := map[bool]int{} // members of the first routed unit over a bitset, over a list
		passUnits = func(rn *runner, parents []*cand, plans []candPlan, units []unit) {
			for _, u := range units {
				if !u.routed || walked[u.from.IsBitset()] > 0 {
					continue
				}
				var st Stats
				var keepers [maxSiblings]table.Keeper
				accs, none := rn.accumulators(parents), make([]int64, len(parents))
				if allocs := testing.AllocsPerRun(10, func() { rn.walkUnit(&keepers, parents, plans, u, accs, none, &st) }); allocs != 0 {
					t.Errorf("a routed unit of %d members over a bitset %v allocated %v times", len(u.members), u.from.IsBitset(), allocs)
				}
				var mine [maxSiblings][]extAcc
				var keeps [maxSiblings]*table.Keeper
				for j, p := range u.members {
					mine[j] = accs[p]
					keeps[j] = &keepers[j]
					keeps[j].Start(rn.tab.NumRows())
				}
				if allocs := testing.AllocsPerRun(10, func() { rn.route(&st, parents, u, &mine, &keeps) }); allocs != 0 {
					t.Errorf("a routed walk of %d members over a bitset %v, each keeping its rows, allocated %v times", len(u.members), u.from.IsBitset(), allocs)
				}
				if st.CellsBooked == 0 {
					t.Errorf("a routed walk of %d members booked nothing", len(u.members))
				}
				walked[u.from.IsBitset()] = len(u.members)
			}
		}
		if _, _, err := Run(tab.All(), weight.NewSize(tab.NumCols()), Options{K: 3, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if len(walked) == 0 {
			t.Fatalf("%d rows × %d columns: no routed walk", tab.NumRows(), tab.NumCols())
		}
		t.Logf("%d rows × %d columns: members of the first routed walk over a bitset, a list: %v", tab.NumRows(), tab.NumCols(), walked)
	}
}

// checkRouted re-walks routed unit u of a pass, before the pass walks it,
// into fresh accumulators, every member keeping its rows; it returns what
// breaks the planner's rule: members that are not cover-less siblings of
// one from, more than maxSiblings, a from's Set that does not cost less
// alone than their plans are priced at or a walk that books other than
// that cost, or a member whose rows or sums differ from those a walk of its
// own plan gives it, or, routed alone with every mass it books recorded,
// whose rows come in another order.
func checkRouted(rn *runner, parents []*cand, plans []candPlan, u unit) error {
	from := parents[u.members[0]].from
	label := make([]rule.Rule, len(u.members))
	priced := int64(0)
	for j, p := range u.members {
		c := parents[p]
		label[j] = c.r
		if c.from == nil || c.from != from || c.cover != nil {
			return fmt.Errorf("%v: not cover-less siblings of one from", label)
		}
		priced += plans[p].price
	}
	cost := readAlone(u.from)
	if len(u.members) > maxSiblings || cost >= priced {
		return fmt.Errorf("%v: %d members, the from's set read alone %d, plans priced at %d", label, len(u.members), cost, priced)
	}
	routeInto := func(u unit) (st Stats, mine [maxSiblings][]extAcc, keepers [maxSiblings]table.Keeper) {
		var keeps [maxSiblings]*table.Keeper
		for j, p := range u.members {
			mine[j] = rn.accumulators(parents[p : p+1])[0]
			keeps[j] = &keepers[j]
			keeps[j].Start(rn.tab.NumRows())
		}
		rn.route(&st, parents, u, &mine, &keeps)
		return st, mine, keepers
	}
	st, mine, keepers := routeInto(u)
	if st.BitmapWordsRead+st.PostingsRead != cost || st.RowsScanned != 0 {
		return fmt.Errorf("%v: the routed walk booked %+v, want %d", label, st, cost)
	}
	for j, p := range u.members {
		var rows []int
		want := rn.accumulators(parents[p : p+1])[0]
		rn.walk(parents[p], plans[p], new(Stats), func(row int) {
			rows = append(rows, row)
			rn.bookRow(want, row)
		})
		if got := setRows(keepers[j].Keep(math.MaxInt64)); !slices.Equal(got, rows) || !reflect.DeepEqual(mine[j], want) {
			return fmt.Errorf("%v: member %v routed rows %v and sums %v, its plan's walk %v and %v", label, label[j], got, mine[j], rows, want)
		}
		// Every booking reads one mass: routed alone, the member books its
		// rows in the order its plan's walk visits them.
		rec := &recordMass{Aggregator: rn.agg}
		agg, unitMass := rn.agg, rn.unitMass
		rn.agg, rn.unitMass = rec, false
		routeInto(unit{members: u.members[j : j+1], routed: true, from: u.from})
		rn.agg, rn.unitMass = agg, unitMass
		if !slices.Equal(rec.rows, rows) {
			return fmt.Errorf("%v: member %v routed alone books rows in the order %v, its plan's walk %v", label, label[j], rec.rows, rows)
		}
	}
	return nil
}

// recordMass is an aggregator that records the row of every mass it is
// asked for.
type recordMass struct {
	score.Aggregator
	rows []int
}

func (r *recordMass) Mass(t *table.Table, i int) float64 {
	r.rows = append(r.rows, i)
	return r.Aggregator.Mass(t, i)
}

// setRows returns s's rows, ascending.
func setRows(s table.Set) []int {
	var rows []int
	table.EachInAll(new(table.Tally), []table.Set{s}, func(row int) { rows = append(rows, row) })
	return rows
}

// spreadSiblingsTable is 6 400 rows, 100 words, on which two siblings do
// not pay to route: A holds one value, a bitset over every word; B's b1
// fills the first 10 words and b2 the last 10, dense, and sparse values
// the 80 between; C's 64 values are sparse. (a0,b1) and (a0,b2), both
// reached first from (a0), are expanded in the same pass, and each walked
// by its plan reads 2 × 10 words, while one routed walk would read A's
// 100: 100 against 40.
func spreadSiblingsTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < 6400; i++ {
		v := "b1"
		switch {
		case i >= 5760:
			v = "b2"
		case i >= 640:
			v = fmt.Sprint("b", 3+(i-640)/183)
		}
		b.MustAddRow([]string{"a0", v, fmt.Sprint("c", i%64)})
	}
	return b.Build()
}

// listFromTable is 6 400 rows of 64 tuples, tuple p in every 64th row
// from row p: every value sparse, a list of 100 rows spread over the whole
// table. Each tuple's level-2 and level-3 rules are expanded in step 1,
// the first routed from a level-1 value's list and the second from a
// level-2 rule's cover, a list: its rows are scattered one a word, so a
// bitset would read more words than the list has entries.
func listFromTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C", "D"}, nil)
	for i := 0; i < 6400; i++ {
		p := i % 64
		b.MustAddRow([]string{fmt.Sprint("a", p), fmt.Sprint("b", p*5%64), fmt.Sprint("c", p*9%64), fmt.Sprint("d", p*13%64)})
	}
	return b.Build()
}
