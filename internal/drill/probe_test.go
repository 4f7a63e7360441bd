package drill

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/spans"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The mw probe searches its draws tallied and stops at the pick that settles
// its answer. Both are ways of doing the work, not of changing it: the
// estimate must be the one Section 6.1 written out literally gives — the
// drawn rows laid out as a view, a batch search for k rules, twice the
// heaviest — once that is clamped to the weighter's bound as every search
// clamps its mw.

// literalDraws draws the probe's positions as Section 6.1's sample: probeSize
// uniform draws with replacement from v's rows.
func literalDraws(v *table.View, seed int64) []int {
	rng := sampling.NewTestRNG(seed)
	positions := make([]int, probeSize)
	for i := range positions {
		positions[i] = rng.Intn(v.NumRows())
	}
	return positions
}

// literalEstimate is Section 6.1 as written, clamped: a batch search for k
// rules, unbounded, over the drawn rows; twice the heaviest weight selected;
// the weighter's bound where that reaches it or nothing was selected.
func literalEstimate(t *testing.T, v *table.View, w weight.Weighter, k int, seed int64) float64 {
	t.Helper()
	top := w.MaxWeight(v.NumCols())
	results, _, err := brs.RunCtx(context.Background(), v.Subset(literalDraws(v, seed)), w, brs.Options{K: k, MaxWeight: top})
	if err != nil {
		t.Fatal(err)
	}
	maxW := 0.0
	for _, r := range results {
		maxW = math.Max(maxW, r.Weight)
	}
	if maxW == 0 || 2*maxW >= top {
		return top
	}
	return 2 * maxW
}

// TestEquivalenceProbeTally holds the probe to the literal Section 6.1 over
// tables × weighters × k × seeds, and its early stop to the pick that settles
// the estimate: the probe crosses exactly the pass boundaries of a search of
// its view that is asked for as many rules as it takes to reach a pick of
// half the bound — all k where none does.
func TestEquivalenceProbeTally(t *testing.T) {
	type fixture struct {
		name  string
		tab   *table.Table
		seeds []int64
	}
	fixtures := []fixture{
		{"census20kx5", datagen.CensusProjected(20_000, 5, 3), []int64{1, 2}},
		{"census20kx7", datagen.CensusProjected(20_000, 7, 3), []int64{1, 2}},
		{"storesales", datagen.StoreSales(42), []int64{1, 2}},
		{"mwSensitive", mwSensitiveTable(), []int64{1}}, // light picks: the estimate binds
	}
	if os.Getenv("SMARTDRILL_LARGE") != "" {
		// The gated run: five seeds, and the wide tables, where one literal
		// probe is seconds and two seeds are twenty minutes.
		for i := range fixtures {
			fixtures[i].seeds = []int64{1, 2, 3, 4, 5}
		}
		fixtures = append(fixtures,
			fixture{"census20kx10", datagen.CensusProjected(20_000, 10, 3), []int64{1, 2}},
			fixture{"marketing3000", datagen.Marketing(3000, 1), []int64{1, 2}})
	}
	// What the matrix must exercise to mean anything: an estimate that binds,
	// one settled by a pick that is not the last, and one settled at equality.
	var bound, settledEarly, settledAtEquality bool
	for _, fx := range fixtures {
		start := time.Now()
		v := fx.tab.All()
		cols := fx.tab.NumCols()
		weighters := []weight.Weighter{
			weight.NewSize(cols),
			weight.BitsFor(fx.tab),
			weight.SizeMinusOne{},
			weight.StarConstraint{Inner: weight.NewSize(cols), Column: 1},
			weight.Scaled{Factor: 0.5, Inner: weight.NewSize(cols)}, // fractional: the row path
		}
		for _, w := range weighters {
			top := w.MaxWeight(cols)
			for _, k := range []int{1, 3, 10} {
				for _, seed := range fx.seeds {
					label := fmt.Sprintf("%s/%s/k%d/seed%d", fx.name, w.Name(), k, seed)
					want := literalEstimate(t, v, w, k, seed)
					polled := &pollCtx{Context: context.Background()}
					if got, _ := estimateMaxWeight(polled, v, w, k, seed); got != want {
						t.Fatalf("%s: estimate %v, literal Section 6.1 %v (bound %v)", label, got, want, top)
					}

					// The picks of a full search of the probe's own view, in
					// selection order, say which one settles the estimate.
					probe, _ := probeView(v, w, sampling.NewTestRNG(seed))
					if weighted := probe.Table().Weighted(); weighted != weight.Integral(w) {
						t.Fatalf("%s: probe view tallied %v under a weighter with integral %v", label, weighted, weight.Integral(w))
					}
					opts := brs.Options{K: k, MaxWeight: top}
					var picks []float64
					if _, err := brs.RunIncremental(probe, w, opts, k, time.Time{}, func(r brs.Result) bool {
						picks = append(picks, r.Weight)
						return true
					}); err != nil {
						t.Fatal(err)
					}
					settles, settled := len(picks), false // rules the probe's search has to find
					for i, weight := range picks {
						if 2*weight >= top {
							settles, settled = i+1, true
							settledEarly = settledEarly || settles < len(picks)
							settledAtEquality = settledAtEquality || (2*weight == top && settles < len(picks))
							break
						}
					}
					if settled != (want == top) {
						t.Fatalf("%s: picks %v settle the estimate: %v, yet the literal estimate is %v of %v", label, picks, settled, want, top)
					}
					bound = bound || want < top
					limited := &pollCtx{Context: context.Background()}
					if _, err := brs.RunIncrementalCtx(limited, probe, w, opts, settles, time.Time{}, func(brs.Result) bool { return true }); err != nil {
						t.Fatal(err)
					}
					if got, want := polled.polls.Load(), limited.polls.Load(); got != want {
						t.Fatalf("%s: the probe crossed %d pass boundaries, a search for the %d of %d picks %v that settle it crosses %d",
							label, got, settles, len(picks), picks, want)
					}
				}
			}
		}
		t.Logf("%s: %d seeds in %v", fx.name, len(fx.seeds), time.Since(start).Round(time.Millisecond))
	}
	if !bound || !settledEarly || !settledAtEquality {
		t.Fatalf("the matrix is too tame: estimate below the bound %v, settled before the last pick %v, at exactly half the bound %v",
			bound, settledEarly, settledAtEquality)
	}
}

// TestProbeTallyIsTheDraws: the probe's view under integer weights is the
// literal draws and nothing else — the same tuples, in tuple order (the order
// the table's own distinct-tuple table holds them in), each standing for the
// number of times it was drawn — from the whole table and from a view whose
// positions are not table rows; drawn from the distinct tuples, it is in
// tuple order as well.
func TestProbeTallyIsTheDraws(t *testing.T) {
	tab := datagen.CensusProjected(20_000, 7, 3)
	var odd []int
	for i := 1; i < tab.NumRows(); i += 2 {
		odd = append(odd, i)
	}
	tupleAt := func(v *table.View, i int) string {
		vals := make([]int, v.NumCols())
		for c := range vals {
			vals[c] = int(v.Value(c, i))
		}
		return fmt.Sprint(vals)
	}
	all := tab.Distinct(new(table.Tally))
	rank := make(map[string]int, all.NumRows())
	for j := 0; j < all.NumRows(); j++ {
		rank[tupleAt(all.All(), j)] = j
	}
	for name, v := range map[string]*table.View{"table": tab.All(), "odd rows": tab.ViewOf(odd)} {
		for seed := int64(1); seed <= 3; seed++ {
			var order []string
			times := map[string]int{}
			for _, pos := range literalDraws(v, seed) {
				tuple := tupleAt(v, pos)
				if times[tuple] == 0 {
					order = append(order, tuple)
				}
				times[tuple]++
			}
			slices.SortFunc(order, func(a, b string) int { return rank[a] - rank[b] })
			probe, _ := probeView(v, weight.NewSize(tab.NumCols()), sampling.NewTestRNG(seed))
			if probe.NumRows() != len(order) || probe.NumTuples() != probeSize {
				t.Fatalf("%s, seed %d: the probe holds %d tuples for %d draws, the draws %d for %d",
					name, seed, probe.NumRows(), probe.NumTuples(), len(order), probeSize)
			}
			for i, tuple := range order {
				if got, mult := tupleAt(probe, i), probe.Table().Multiplicity(probe.ParentRow(i)); got != tuple || mult != times[tuple] {
					t.Fatalf("%s, seed %d: probe row %d is %s × %d, the draws' is %s × %d", name, seed, i, got, mult, tuple, times[tuple])
				}
			}
		}
	}
	// Drawn from the distinct tuples by multiplicity, the tally is in tuple
	// order too.
	for seed := int64(1); seed <= 3; seed++ {
		probe, _ := probeView(all.All(), weight.NewSize(tab.NumCols()), sampling.NewTestRNG(seed))
		if probe.NumTuples() != probeSize {
			t.Fatalf("distinct tuples, seed %d: the probe holds %d draws, want %d", seed, probe.NumTuples(), probeSize)
		}
		for i := 1; i < probe.NumRows(); i++ {
			if rank[tupleAt(probe, i-1)] >= rank[tupleAt(probe, i)] {
				t.Fatalf("distinct tuples, seed %d: probe rows %d and %d are not in tuple order", seed, i-1, i)
			}
		}
	}
}

// TestProbeSkipsSmallViewsAndDeadContexts: a view of no more rows than the
// probe draws is not probed — no search, so no pass boundary — and a probe
// under a dead context gives way at its first: both answer the weighter's
// bound.
func TestProbeSkipsSmallViewsAndDeadContexts(t *testing.T) {
	tab := mwSensitiveTable() // its best rules weigh 1: a probe answers 2, below the bound
	w := weight.NewSize(tab.NumCols())
	top := w.MaxWeight(tab.NumCols())

	rows := make([]int, probeSize)
	for i := range rows {
		rows[i] = i
	}
	polled := &pollCtx{Context: context.Background()}
	if mw, _ := estimateMaxWeight(polled, tab.ViewOf(rows), w, 1, 1); mw != top || polled.polls.Load() != 0 {
		t.Errorf("a view of %d rows: estimate %v after %d pass boundaries, want the bound %v and no search", probeSize, mw, polled.polls.Load(), top)
	}
	if mw := EstimateMaxWeight(tab.ViewOf(append(rows, probeSize)), w, 1, 1); mw != 2 {
		t.Errorf("a view of %d rows: estimate %v, want the probe's 2", probeSize+1, mw)
	}
	dead := &pollCtx{Context: context.Background(), cancelAt: 1}
	if mw, _ := estimateMaxWeight(dead, tab.All(), w, 1, 1); mw != top || dead.polls.Load() != 1 {
		t.Errorf("a dead context: estimate %v after %d pass boundaries, want the bound %v at the first", mw, dead.polls.Load(), top)
	}
}

// expandedRows lays a weighted view out row by row: an unweighted table, with
// tab's dictionaries, holding each of v's tuples as many times over as its
// multiplicity, in v's order.
func expandedRows(t *testing.T, tab *table.Table, v *table.View) *table.View {
	t.Helper()
	var rows []int
	tuple := make(rule.Rule, v.NumCols())
	for i := 0; i < v.NumRows(); i++ {
		for c := range tuple {
			tuple[c] = v.Value(c, i)
		}
		equal := tab.FilterIndices(tuple)
		if len(equal) == 0 {
			t.Fatalf("the sample holds %v, which the table does not", tuple)
		}
		for m := v.Table().Multiplicity(v.ParentRow(i)); m > 0; m-- {
			rows = append(rows, equal[0])
		}
	}
	return tab.Select(rows).All()
}

// withProbeFloor has the drills of the rest of t probe every view of more
// than floor tuples.
func withProbeFloor(t testing.TB, floor int) {
	old := probeFloor
	probeFloor = floor
	t.Cleanup(func() { probeFloor = old })
}

// lightTable's best rules weigh 1 under Size weighting, of a bound of 3, so a
// probe of more tuples than it draws estimates 2: it holds unique rows
// (a_{i mod 4}, u_i, v_i), each once, and tuples (a_{j mod 4}, p_j, q_j), each
// copies times over.
func lightTable(unique, tuples, copies int) *table.Table {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < unique; i++ {
		b.MustAddRow([]string{fmt.Sprint("a", i%4), fmt.Sprint("u", i), fmt.Sprint("v", i)})
	}
	for n := 0; n < copies; n++ {
		for j := 0; j < tuples; j++ {
			b.MustAddRow([]string{fmt.Sprint("a", j%4), fmt.Sprint("p", j), fmt.Sprint("q", j)})
		}
	}
	return b.Build()
}

// TestProbeOnlyAboveFloor: a drill probes for mw only where the view its
// search reads holds more than probeFloor tuples, and probes that view. On
// each of the four views a search reads — a table's rows, its distinct
// tuples, a sample drawn from them and a sample of rows — a drill at
// the floor searches at the weighter's bound, with no probe timed or read.
// One tuple above it, the drill searches at the probe's estimate over its
// view, which binds, and on a weighted view is the literal Section 6.1 over
// the same tuples laid out row by row; the probe's draw, passes and reads are
// booked to the drill beside the bounded search's.
func TestProbeOnlyAboveFloor(t *testing.T) {
	for _, arm := range []struct {
		name     string
		tab      *table.Table
		cfg      Config
		weighted bool   // the search reads a table of distinct tuples
		method   string // how the drills after the first are served
	}{
		{"exact rows", lightTable(3000, 0, 0), Config{}, false, "direct"},
		{"exact distinct tuples", lightTable(0, 2500, 5), Config{}, true, "direct"},
		{"tuple-born sample", lightTable(0, 2500, 8), Config{SampleMemory: 9000, MinSampleSize: 9000}, true, "Find"},
		// The table does not compress: the sample is of its rows.
		{"row sample", lightTable(8000, 1000, 22), Config{SampleMemory: 9000, MinSampleSize: 9000}, false, "Find"},
	} {
		t.Run(arm.name, func(t *testing.T) {
			ctx := context.Background()
			cfg := arm.cfg
			cfg.K, cfg.Workers, cfg.Seed, cfg.Search = 3, 1, 5, cacheOff()
			s, err := NewSession(arm.tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := s.cfg.Weighter
			// expand drills the root again under a span record of its own, and
			// reports whether the drill timed an mw probe.
			expand := func() (probed bool) {
				t.Helper()
				rec := spans.Start()
				if err := s.ExpandCtx(spans.With(ctx, &rec), s.Root()); err != nil {
					t.Fatal(err)
				}
				_, probed = rec.Duration(spans.MW)
				return probed
			}
			// The first drill builds what later ones read — the distinct
			// tuples, a sample and its table — and probes nothing: the floor is
			// far above.
			if expand() {
				t.Fatal("a drill below the default floor timed a probe")
			}
			cov, err := s.coveredView(s.Root().Rule, w, false)
			if err != nil {
				t.Fatal(err)
			}
			s.unbooked = brs.Stats{}
			v := cov.view
			if v.Table().Weighted() != arm.weighted || v.NumRows() <= probeSize {
				t.Fatalf("the search reads %d tuples, weighted %v", v.NumRows(), v.Table().Weighted())
			}
			// drill drills the root again, requires the rules and reads of a
			// search of v at mw, plus the probe's reads, and reports whether it
			// timed a probe.
			drill := func(label string, mw float64, probe brs.Stats) (probed bool) {
				t.Helper()
				probed = expand()
				if s.LastMethod != arm.method {
					t.Fatalf("%s: served by %s, want %s", label, s.LastMethod, arm.method)
				}
				want, st, err := brs.Run(v, w, brs.Options{K: 3, MaxWeight: mw, Base: s.Root().Rule, BaseCovered: true, Workers: 1, SampleScale: cov.scale})
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Root().Children) != len(want) {
					t.Fatalf("%s: %d rules, a search at mw %v finds %d", label, len(s.Root().Children), mw, len(want))
				}
				for i, r := range want {
					if c := s.Root().Children[i]; !c.Rule.Equal(r.Rule) || c.Weight != r.Weight || c.Count != r.Count {
						t.Fatalf("%s: rule %d is %v (%v, %v), a search at mw %v finds %v (%v, %v)", label, i, c.Rule, c.Weight, c.Count, mw, r.Rule, r.Weight, r.Count)
					}
				}
				st.Passes += probe.Passes
				st.RowsScanned += probe.RowsScanned
				st.PostingsRead += probe.PostingsRead
				st.BitmapWordsRead += probe.BitmapWordsRead
				if got := s.LastStats; got.Passes != st.Passes || got.RowsScanned != st.RowsScanned || got.PostingsRead != st.PostingsRead ||
					got.BitmapWordsRead != st.BitmapWordsRead || got.CandidatesCounted != st.CandidatesCounted ||
					got.CandidatesPruned != st.CandidatesPruned || got.CandidatesReused != st.CandidatesReused {
					t.Fatalf("%s: the drill was booked %+v, want its search's plus the probe's reads %+v", label, got, st)
				}
				return probed
			}

			withProbeFloor(t, v.NumRows())
			if drill("at the floor", w.MaxWeight(v.NumCols()), brs.Stats{}) {
				t.Fatal("at the floor: a probe was timed")
			}

			probeFloor = v.NumRows() - 1
			seed := s.probeSeed(s.Root().Rule, cov, 3)
			mw, probe := estimateMaxWeight(ctx, v, w, 3, seed)
			if probe.Passes == 0 || probe.RowsScanned == 0 {
				t.Fatalf("the probe read nothing: %+v", probe)
			}
			literal := v
			if arm.weighted {
				literal = expandedRows(t, arm.tab, v)
			}
			if want, _ := estimateMaxWeight(ctx, literal, w, 3, seed); mw != want || mw >= w.MaxWeight(v.NumCols()) {
				t.Fatalf("the probe of %d tuples estimates %v, Section 6.1 over their %d rows %v, the bound %v", v.NumRows(), mw, literal.NumRows(), want, w.MaxWeight(v.NumCols()))
			}
			if !drill("above the floor", mw, probe) {
				t.Fatal("above the floor: no probe was timed")
			}
			t.Logf("%d tuples, mw %v of %v, probe %+v", v.NumRows(), mw, w.MaxWeight(v.NumCols()), probe)
		})
	}
}
