package brs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Hand-built tables for the places where lazy marginals, fused counting and
// the bound-before-walk gate could go wrong without a random table
// noticing: a parent gated in one step and walked in the next, a candidate
// pruned in one step and admitted in a later one, exact ties between a
// cached candidate and a freshly counted one, extensions whose mass sums to
// zero, and the walk a last selection must not pay.

// group is n rows with the given cells; a cell ending in '#' is made
// distinct per row (the row number is appended). Under Sum, mass[i%len]
// is row i's measure.
type group struct {
	cells []string
	n     int
	mass  []float64
}

func groupTable(cols []string, groups ...group) *table.Table {
	b := table.MustBuilder(cols, []string{"M"})
	row := make([]string, len(cols))
	id := 0
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			for c, cell := range g.cells {
				row[c] = cell
				if cell[len(cell)-1] == '#' {
					row[c] = fmt.Sprintf("%s%d", cell, id)
				}
			}
			mass := 1.0
			if len(g.mass) > 0 {
				mass = g.mass[i%len(g.mass)]
			}
			b.MustAddRow(row, mass)
			id++
		}
	}
	return b.Build()
}

func mustRule(t *testing.T, tab *table.Table, pattern map[string]string) rule.Rule {
	t.Helper()
	r, err := tab.EncodeRule(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (rn *runner) lookup(r rule.Rule) *cand { return rn.store.find(r, -1, rule.Star) }

func stream(t *testing.T, v *table.View, w weight.Weighter, opts Options, maxRules int) []Result {
	t.Helper()
	var out []Result
	_, err := RunIncremental(v, w, opts, maxRules, time.Time{}, func(r Result) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameStreams requires the oracle to stream exactly the hand-derived order
// over v and the fast path to stream the oracle's results at every worker
// count.
func sameStreams(t *testing.T, label string, v *table.View, w weight.Weighter, opts Options, order []map[string]string) {
	t.Helper()
	want := oracleStream(v, w, opts, len(order))
	if len(want) != len(order) {
		t.Fatalf("%s: the oracle streamed %d rules, want %d", label, len(want), len(order))
	}
	for i, p := range order {
		if r := mustRule(t, v.Table(), p); !want[i].Rule.Equal(r) {
			t.Fatalf("%s: the oracle's rule %d = %v, want %v", label, i, want[i].Rule, r)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		got := stream(t, v, w, opts, len(order))
		sameResults(t, fmt.Sprintf("%s workers=%d", label, workers), got, want)
	}
}

// TestEquivalenceLazyTieBreaks pins the greedy order on two tables where
// step 2 is decided by an exact tie that involves a rule step 1 never
// generated: X = (a2,b2), 20 rows. Both its parents bound their super-rules
// by 40 < H = 60 in step 1, so neither is walked; once (a1,?) is selected H
// opens at 40, (a2,?) is walked and X is measured by that walk at exactly
// 40.
//
//   - "cached first": (a3,?) — level 1, cached, 40 — ties with X; level
//     order gives the step to the cached rule.
//   - "fresh first": (a4,b4) — level 2, counted in step 1 at 40 — ties
//     with X, which sorts before it; key order gives the step to the
//     freshly generated rule.
//
// Each stream must equal the order worked out by hand and the oracle's at
// every worker count.
func TestEquivalenceLazyTieBreaks(t *testing.T) {
	cols := []string{"A", "B"}
	common := []group{
		{cells: []string{"a1", "u#"}, n: 60},
		{cells: []string{"a2", "b2"}, n: 20},
	}
	cases := []struct {
		name  string
		extra []group
		want  []map[string]string
	}{
		{"cached first",
			[]group{{cells: []string{"a3", "v#"}, n: 40}},
			[]map[string]string{{"A": "a1"}, {"A": "a3"}, {"A": "a2", "B": "b2"}}},
		{"fresh first",
			[]group{
				{cells: []string{"a4", "b4"}, n: 20},
				{cells: []string{"a4", "w#"}, n: 10},
				{cells: []string{"x#", "b4"}, n: 10}},
			[]map[string]string{{"A": "a1"}, {"A": "a2", "B": "b2"}, {"A": "a4", "B": "b4"}}},
	}
	w := weight.NewSize(2)
	for _, tc := range cases {
		tab := groupTable(cols, append(append([]group{}, common...), tc.extra...)...)
		v := tab.All()
		label := tc.name
		x := mustRule(t, tab, map[string]string{"A": "a2", "B": "b2"})

		rn, err := newRunner(v, w, Options{MaxWeight: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rn.applySelection(rn.findBestMarginal())
		a2 := rn.lookup(mustRule(t, tab, map[string]string{"A": "a2"}))
		if a2 == nil || !a2.counted || a2.expanded {
			t.Fatalf("%s: after step 1 (a2,?) = %+v, want counted and not expanded", label, a2)
		}
		rn.findBestMarginal()
		if !a2.expanded {
			t.Fatalf("%s: (a2,?) still not expanded after step 2", label)
		}
		if c := rn.lookup(x); c == nil || !c.counted || c.asOf != 2 || c.marginal != 40 {
			t.Fatalf("%s: after step 2 X = %+v, want counted with marginal 40", label, c)
		}

		sameStreams(t, label, v, w, Options{MaxWeight: 2}, tc.want)
	}
}

// TestEquivalenceLateSurvivorTieBreaks: the tie of step 3 involves a late
// survivor — a rule measured by a parent's walk, pruned, and admitted by a
// later step that has no walk left to measure it, so it is counted on its
// own. X = (a1,b1), 10 rows, worth 20 throughout.
//
//		step 1  H = 50, (?,bs). (a1,?) bounds by 50 and is walked, measuring X;
//		        (?,b1) bounds by 2·count < 50: gated, and X is pruned under it.
//		step 2  H = 36, (a3,?). (?,b1) now passes and its walk measures X again,
//		        but (a1,?), 15 of its 25 rows under (?,bs), has fallen to
//		        10 + 25 = 35: pruned.
//		step 3  H = 20 or less, both parents long expanded: X is admitted and
//		        recounted.
//
//	  - "cached first": (?,b1) — level 1, 20 rows — ties with X at 20.
//	  - "fresh first": (?,b1) has 18 rows; (a4,bs) — level 2, counted in
//	    step 1, 20 rows under the selected (?,bs) — ties with X, which sorts
//	    before it.
func TestEquivalenceLateSurvivorTieBreaks(t *testing.T) {
	common := []group{
		{cells: []string{"a1", "b1"}, n: 10},
		{cells: []string{"a1", "bs"}, n: 15},
		{cells: []string{"a3", "w#"}, n: 36},
	}
	cases := []struct {
		name  string
		extra []group
		want  []map[string]string
	}{
		{"cached first",
			[]group{
				{cells: []string{"o#", "b1"}, n: 10},
				{cells: []string{"u#", "bs"}, n: 35}},
			[]map[string]string{{"B": "bs"}, {"A": "a3"}, {"B": "b1"}}},
		{"fresh first",
			[]group{
				{cells: []string{"o#", "b1"}, n: 8},
				{cells: []string{"a4", "bs"}, n: 20},
				{cells: []string{"a4", "q#"}, n: 5},
				{cells: []string{"u#", "bs"}, n: 15}},
			[]map[string]string{{"B": "bs"}, {"A": "a3"}, {"A": "a1", "B": "b1"}}},
	}
	w := weight.NewSize(2)
	for _, tc := range cases {
		tab := groupTable([]string{"A", "B"}, append(append([]group{}, common...), tc.extra...)...)
		v := tab.All()
		label := tc.name

		rn, err := newRunner(v, w, Options{MaxWeight: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rn.applySelection(rn.findBestMarginal())
		a1 := rn.lookup(mustRule(t, tab, map[string]string{"A": "a1"}))
		b1 := rn.lookup(mustRule(t, tab, map[string]string{"B": "b1"}))
		x := rn.lookup(mustRule(t, tab, map[string]string{"A": "a1", "B": "b1"}))
		if !a1.expanded || b1.expanded || x == nil || x.counted || x.asOf != 1 || x.count != 10 {
			t.Fatalf("%s: after step 1 (a1,?) expanded=%v (?,b1) expanded=%v X=%+v, want X measured under (a1,?) alone and pruned",
				label, a1.expanded, b1.expanded, x)
		}
		rn.applySelection(rn.findBestMarginal())
		if !b1.expanded || x.counted || x.asOf != 2 {
			t.Fatalf("%s: after step 2 (?,b1) expanded=%v X=%+v, want X measured again and pruned under (a1,?)", label, b1.expanded, x)
		}
		rn.findBestMarginal()
		if !x.counted || x.asOf != 3 || x.marginal != 20 {
			t.Fatalf("%s: after step 3 X = %+v, want counted with marginal 20", label, x)
		}

		sameStreams(t, label, v, w, Options{MaxWeight: 2}, tc.want)
	}
}

// TestEquivalenceRefreshThroughTies: the refresh must go on while the next
// stale marginal *equals* the best fresh one. After (a1,?) is selected,
// each of eight rounds' worth of rules (?,b_i) falls from a stale 50 to
// 40, and the next stale candidate, (a0,?), is worth 40 before and after.
// It precedes every (?,b_i) in level-1 order, so it is step 2's winner,
// which only a refresh that continues through the tie can see. The (?,b_i)
// are a whole number of rounds, so the tie straddles a round boundary:
// the refresh re-measures the (?,b_i) in rounds of refreshRound and (a0,?)
// opens a round of its own.
func TestEquivalenceRefreshThroughTies(t *testing.T) {
	const ties = 8 * refreshRound
	var groups []group
	for i := 0; i < ties; i++ {
		b := fmt.Sprintf("b%d", i)
		groups = append(groups,
			group{cells: []string{"a1", b}, n: 10},
			group{cells: []string{"r#", b}, n: 40})
	}
	groups = append(groups, group{cells: []string{"a0", "s#"}, n: 40})
	w := weight.NewSize(2)
	tab := groupTable([]string{"A", "B"}, groups...)
	a0 := mustRule(t, tab, map[string]string{"A": "a0"})
	v := tab.All()
	want := oracleStream(v, w, Options{MaxWeight: 1}, 2)
	if len(want) != 2 || !want[1].Rule.Equal(a0) {
		t.Fatalf("the oracle streamed %v, want (a1,?) then (a0,?)", want)
	}
	for _, workers := range []int{1, 2, 8} {
		got := stream(t, v, w, Options{MaxWeight: 1, Workers: workers}, 2)
		sameResults(t, fmt.Sprintf("workers=%d", workers), got, want)
	}

	// Step 2's refresh, alone: a round of index walks for every
	// refreshRound of the (?,b_i), then one more, which (a0,?) opens.
	rn, err := newRunner(v, w, Options{MaxWeight: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn.applySelection(rn.findBestMarginal())
	rn.raiseTopW()
	before := rn.stats
	if best := rn.refreshStale(); best != 40 {
		t.Fatalf("the refresh opened step 2 at %v, want 40", best)
	}
	passes, rounds := rn.stats.Passes-before.Passes, rn.stats.IndexLevels-before.IndexLevels
	if wantRounds := ties/refreshRound + 1; passes != 0 || rounds != wantRounds || rn.lookup(a0).asOf != 2 {
		t.Fatalf("the refresh took %d passes and %d index rounds, (a0,?) measured in step %d; want 0, %d and step 2",
			passes, rounds, rn.lookup(a0).asOf, wantRounds)
	}
}

// TestEquivalenceTiesAcrossParents: a level is merged from its parents'
// child lists and never sorted, so where a rule stands in it says which
// parent reached it first and nothing else; of two rules of one level tied
// for a step's maximum the smaller key wins wherever they stand. Over columns
// A, B, C, D, X = (a1,b1,?,?) and Y = (?,?,c2,d2) cover 30 rows each and tie
// step 1 at 60; P = (a3,b3,c3,?) and Q = (?,b4,c4,d4) cover 15 each and tie
// step 3 at 45 (as cached candidates: step 1 counted both). X and P are the
// first of their levels — their parents hang under column A — and Y and Q
// the smaller keys, a star sorting before every value id but 0. With the
// columns in the order D, C, B, A the same rules are reached the other way
// round, and it is X and P that start with a star.
func TestEquivalenceTiesAcrossParents(t *testing.T) {
	groups := []group{
		{cells: []string{"a0", "b0", "c0", "d0"}, n: 1}, // takes value id 0 of every column
		{cells: []string{"a1", "b1", "c#", "d#"}, n: 30},
		{cells: []string{"a#", "b#", "c2", "d2"}, n: 30},
		{cells: []string{"a3", "b3", "c3", "d#"}, n: 15},
		{cells: []string{"a#", "b4", "c4", "d4"}, n: 15},
	}
	x := map[string]string{"A": "a1", "B": "b1"}
	y := map[string]string{"C": "c2", "D": "d2"}
	p := map[string]string{"A": "a3", "B": "b3", "C": "c3"}
	q := map[string]string{"B": "b4", "C": "c4", "D": "d4"}
	cases := []struct {
		name string
		cols []string
		want []map[string]string
	}{
		{"ABCD", []string{"A", "B", "C", "D"}, []map[string]string{y, x, q, p}},
		{"DCBA", []string{"D", "C", "B", "A"}, []map[string]string{x, y, p, q}},
	}
	w := weight.NewSize(4)
	for _, tc := range cases {
		ordered := make([]group, len(groups))
		for i, g := range groups {
			ordered[i] = g
			if tc.cols[0] == "D" {
				ordered[i].cells = []string{g.cells[3], g.cells[2], g.cells[1], g.cells[0]}
			}
		}
		tab := groupTable(tc.cols, ordered...)
		label := tc.name
		// Each step's winner has the smaller key and is not the rule a
		// parent of the first column reaches.
		for i := 0; i < len(tc.want); i += 2 {
			win, lose := mustRule(t, tab, tc.want[i]), mustRule(t, tab, tc.want[i+1])
			if win.Key() >= lose.Key() || win[0] != rule.Star || lose[0] == rule.Star {
				t.Fatalf("%s: fixture: %v must sort before %v and leave the first column starred", label, win, lose)
			}
		}
		sameStreams(t, label, tab.All(), w, Options{}, tc.want)
	}
}

// TestFusedChildExistsBySight: under Sum an extension can cover rows whose
// masses sum to nothing (SumAgg clamps negative measures to zero). It is
// still a candidate — the oracle extends a rule by the values its rows
// hold, whatever their masses — so the first step, which opens H where the
// oracle's does, must leave every rule the oracle's first step counts in
// the fast store, and a walk must materialize a zero-sum extension with its
// parent's other children. Which step walks which parent is the gate's
// business: the extensions here sit under parents step 1 leaves unexpanded.
// Level 1 alone keeps the extensions of non-zero mass: the fast path's is
// the oracle's, list for list, whether an extension sums to zero or — with
// the measures left unclamped — below it.
func TestFusedChildExistsBySight(t *testing.T) {
	tab := groupTable([]string{"A", "B", "C"},
		group{cells: []string{"a1", "b1", "c#"}, n: 2, mass: []float64{5, -5}}, // (a1,b1,c#1) sums to 0
		group{cells: []string{"a1", "b2", "c3"}, n: 1, mass: []float64{3}},
		group{cells: []string{"a2", "b1", "c3"}, n: 1, mass: []float64{4}},
		group{cells: []string{"a2", "b2", "c1"}, n: 1, mass: []float64{-2}}, // (a2,b2) sums to 0
		group{cells: []string{"a3", "b3", "c3"}, n: 6, mass: []float64{1}},
	)
	// Each zero-sum extension under each parent that is a candidate itself
	// ((?,?,c1) and (?,?,c#1), zero too, are no level-1 candidates).
	bySight := []struct{ ext, parent map[string]string }{
		{map[string]string{"A": "a2", "B": "b2"}, map[string]string{"A": "a2"}},
		{map[string]string{"A": "a2", "B": "b2"}, map[string]string{"B": "b2"}},
		{map[string]string{"A": "a2", "C": "c1"}, map[string]string{"A": "a2"}},
		{map[string]string{"B": "b2", "C": "c1"}, map[string]string{"B": "b2"}},
	}
	w := weight.NewSize(3)
	v := tab.All()
	for _, agg := range []score.Aggregator{score.SumAgg{Measure: 0}, signedSum{}} {
		opts := Options{MaxWeight: 3, Agg: agg, Workers: 1}
		fast, err := newRunner(v, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		fast.findBestMarginal()
		_, steps := brsref.Stream(v, w, oracleOptions(opts), 1)
		var got, want []rule.Rule
		for _, c := range fast.root.children {
			got = append(got, c.r)
		}
		for _, r := range steps[0].Counted {
			if r.Size() == 1 {
				want = append(want, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: level 1 is %v, the oracle's %v", agg.Name(), got, want)
		}
		// (?,?,c#1) sums to zero under Sum and to −5 unclamped.
		neg := fast.lookup(mustRule(t, tab, map[string]string{"C": "c#1"}))
		if _, signed := agg.(signedSum); signed != (neg != nil && hasChild(fast.root, neg)) {
			t.Errorf("%s: (?,?,c#1) a level-1 candidate = %v, want %v", agg.Name(), !signed, signed)
		}
	}

	opts := Options{MaxWeight: 3, Agg: score.SumAgg{Measure: 0}, Workers: 1}
	fast, err := newRunner(v, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	best := fast.findBestMarginal()
	_, steps := brsref.Stream(v, w, oracleOptions(opts), 1)
	if len(steps[0].Counted) == 0 {
		t.Fatal("the oracle counted nothing in step 1")
	}
	for _, r := range steps[0].Counted {
		if fast.lookup(r) == nil {
			t.Errorf("the oracle counted %v in step 1, which the fast path never materialized", r)
		}
	}
	walked := 0
	for step := 1; best != nil && best.marginal > 0; step++ {
		walked = 0
		for _, bs := range bySight {
			pc := fast.lookup(mustRule(t, tab, bs.parent))
			if !pc.expanded {
				continue
			}
			walked++
			if ext := fast.lookup(mustRule(t, tab, bs.ext)); ext == nil || !hasChild(pc, ext) {
				t.Errorf("step %d: %v was walked but its zero-sum extension %v is not among its children", step, bs.parent, bs.ext)
			}
		}
		fast.applySelection(best)
		best = fast.findBestMarginal()
	}
	if walked == 0 {
		t.Error("no parent of a zero-sum extension was ever walked; the table no longer tests anything")
	}
}

// signedSum is Sum without SumAgg's clamp: a row's mass is its measure,
// negative ones included.
type signedSum struct{}

func (signedSum) Mass(t *table.Table, i int) float64 { return t.Measure(0)[i] }
func (signedSum) Name() string                       { return "SignedSum" }

func hasChild(p, child *cand) bool {
	for _, ch := range p.children {
		if ch == child {
			return true
		}
	}
	return false
}

// TestLastSelectionPaysNoWalk: a selection's topW raise is applied when the
// next step opens, so the selection that ends a run — Run's K-th, a
// stream's max_rules-th, the one a callback or a cancellation stops on —
// costs no coverage walk, and a stopped run has done exactly the work of
// the shorter run.
func TestLastSelectionPaysNoWalk(t *testing.T) {
	// One column: level 1 is the whole search, so a one-rule run is the
	// row pass under Sum, and posting lengths alone under Count.
	tab := groupTable([]string{"A"},
		group{cells: []string{"x"}, n: 50}, group{cells: []string{"y"}, n: 30}, group{cells: []string{"z"}, n: 20})
	w := weight.NewSize(1)
	_, sum, err := Run(tab.All(), w, Options{K: 1, Agg: score.SumAgg{Measure: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Passes != 1 || sum.RowsScanned != 100 || sum.IndexLevels != 0 {
		t.Fatalf("one-rule Sum run: %+v, want exactly the level-1 pass", sum)
	}
	_, index, err := Run(tab.All(), w, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if index.IndexLevels != 1 || index.PostingsRead != 0 || index.BitmapWordsRead != 0 || index.Passes != 0 {
		t.Fatalf("one-rule Count run: %+v, want posting lengths only", index)
	}

	wide := groupTable([]string{"A", "B"},
		group{cells: []string{"a1", "u#"}, n: 60}, group{cells: []string{"a2", "b2"}, n: 20}, group{cells: []string{"a3", "b2"}, n: 15})
	w2 := weight.NewSize(2)
	for _, agg := range []score.Aggregator{score.CountAgg{}, score.SumAgg{Measure: 0}} {
		opts := Options{MaxWeight: 2, Agg: agg}
		statsOf := func(ctx context.Context, maxRules int, yield Yield) Stats {
			st, err := RunIncrementalCtx(ctx, wide.All(), w2, opts, maxRules, time.Time{}, yield)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			return st
		}
		all := func(Result) bool { return true }
		one, two := statsOf(context.Background(), 1, all), statsOf(context.Background(), 2, all)
		if one == two {
			t.Fatalf("%s: a second step cost nothing: %+v", agg.Name(), two)
		}
		for k, want := range map[int]Stats{1: one, 2: two} {
			batchOpts := opts
			batchOpts.K = k
			_, batch, err := Run(wide.All(), w2, batchOpts)
			if err != nil {
				t.Fatal(err)
			}
			if batch != want {
				t.Errorf("%s: Run K=%d did %+v, the %d-rule stream %+v", agg.Name(), k, batch, k, want)
			}
		}
		if got := statsOf(context.Background(), 0, func(Result) bool { return false }); got != one {
			t.Errorf("%s: stream stopped by its callback did %+v, want the one-rule run's %+v", agg.Name(), got, one)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if got := statsOf(ctx, 0, func(Result) bool { cancel(); return true }); got != one {
			t.Errorf("%s: stream canceled after its first rule did %+v, want the one-rule run's %+v", agg.Name(), got, one)
		}
		cancel()
	}
}

// TestMaxWeightClampedToWeighterBound: an mw above the weighter's own bound
// (the §6.1 estimate doubles its probe) means "no bound" and must run
// exactly like it — same rules, same pruning, same work.
func TestMaxWeightClampedToWeighterBound(t *testing.T) {
	tab := groupTable([]string{"A", "B", "C"},
		group{cells: []string{"a1", "b#", "c1"}, n: 60},
		group{cells: []string{"a2", "b2", "c#"}, n: 25},
		group{cells: []string{"a3", "b2", "c2"}, n: 15})
	w := weight.NewSize(3)
	top := w.MaxWeight(3)
	want, ws, err := Run(tab.All(), w, Options{K: 3, MaxWeight: top})
	if err != nil {
		t.Fatal(err)
	}
	if ws.CandidatesPruned == 0 {
		t.Fatalf("pruning never engaged: %+v", ws)
	}
	ref, refSteps := brsref.Run(tab.All(), w, brsref.Options{K: 3, MaxWeight: top})
	sameResults(t, "the oracle", fromOracle(ref), want)
	for _, mw := range []float64{0, 2 * top, 100} {
		got, gs, err := Run(tab.All(), w, Options{K: 3, MaxWeight: mw})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("mw=%g", mw), got, want)
		if gs != ws {
			t.Errorf("mw=%g: work %+v, want mw=%g's %+v", mw, gs, top, ws)
		}
		// The oracle clamps mw the same way: the same rules, counted alike.
		ref, steps := brsref.Run(tab.All(), w, brsref.Options{K: 3, MaxWeight: mw})
		sameResults(t, fmt.Sprintf("the oracle at mw=%g", mw), fromOracle(ref), want)
		if !reflect.DeepEqual(steps, refSteps) {
			t.Errorf("the oracle at mw=%g counted %v, at mw=%g %v", mw, steps, top, refSteps)
		}
	}
}
