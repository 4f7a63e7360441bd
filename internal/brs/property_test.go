package brs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Property layer for the counting kernels: the fast path must be
// bit-identical to package brsref — the paper's per-step algorithm over the
// rows, sharing no code with the runner — at every worker count, on view
// shapes chosen so that each planner arm (bitmap, probing walk, scan) is
// the one that runs. Arms are selected by input shape, the way production
// selects them — but for the scan arm, which a test reaches by turning the
// index routes off — and every cell asserts its arm engaged, so the matrix
// cannot silently degenerate into testing one arm under many names. A
// search of a sub-view is a search of its copy: every cell must also
// return, field for field, what the same search over Select of the view's
// rows returns, having read exactly what that search read plus the one
// pass that copied them. CI
// runs this file under -race (the Equivalence|Parallel job), so the lazy
// shared index build, the bitset containers, and the per-worker
// accumulator merges are all exercised for data races, not just for
// answers.

// armShape is one arm-forcing input: a view with the options and weighter
// that go with it, the work its arm rules out, and the evidence its arm ran.
type armShape struct {
	name    string
	view    *table.View
	rows    *table.View // when view is of a distinct-tuple table: the same tuples, one per row
	scan    bool        // search with the index routes off
	w       weight.Weighter
	opts    Options
	forbid  func(Stats) bool // nil: nothing ruled out
	engaged func(Stats) bool
}

// TestEquivalencePropertyMatrix: seeded random tables × arm-forcing view
// shapes × Workers ∈ {1, 2, 8}, every cell bit-identical to brsref.
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
		shapes := []armShape{
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
			// Integral masses under Size weights keep every Sum accumulator
			// exact, so worker merge order cannot show in the last ulp.
			{name: "sum", view: tab.All(), w: size,
				opts: Options{K: 4, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}}, engaged: walk},
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
			{name: "probe", view: tab.ViewOf(probe), w: w, scan: true,
				opts:    Options{K: 4, MaxWeight: mw},
				forbid:  func(s Stats) bool { return s.IndexLevels != 0 },
				engaged: func(s Stats) bool { return s.RowsScanned > 0 }},
		}
		for _, sh := range shapes {
			want := scaled(oracleRun(sh.view, sh.w, sh.opts), sh.opts.SampleScale)
			if sh.rows != nil {
				sameResults(t, fmt.Sprintf("trial %d %s: the oracle over the rows", trial, sh.name), scaled(oracleRun(sh.rows, sh.w, sh.opts), sh.opts.SampleScale), want)
			}
			rows := rowsOf(sh.view)
			whole := slices.Equal(rows, rowsOf(sh.view.Table().All()))
			copied := sh.view.Table().Select(rows).All()
			viewOf(t, sh.view.Table(), sh.scan)
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
				if !whole {
					copyStats.Passes++
					copyStats.RowsScanned += int64(len(rows))
					if sh.opts.SampleScale != 0 {
						copyStats.SampledRowsScanned += int64(len(rows))
					}
				}
				if stats != copyStats {
					t.Fatalf("%s: stats\n%+v\nwant the copy's and its pass\n%+v", label, stats, copyStats)
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
// a mix of dense and sparse lists for the planner to choose between. Two
// measure columns ride along for the Sum shapes: M, small positive
// integers, and Z, integers in [−2, 5] (zeros and negatives included)
// that follow the row number and leave the random stream alone.
func skewedTable(rng *rand.Rand, cols, vals, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, []string{"M", "Z"})
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
		b.MustAddRow(row, float64(1+rng.Intn(9)), float64((i*7+3)%8-2))
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
