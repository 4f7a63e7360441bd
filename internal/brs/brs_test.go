package brs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartdrill/internal/baseline"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func randomTable(rng *rand.Rand, cols, vals, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, nil)
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		b.MustAddRow(row)
	}
	return b.Build()
}

// randomMeasuredTable is randomTable with one measure column "M" of
// fractional masses in [0, 10), for the Sum aggregate.
func randomMeasuredTable(rng *rand.Rand, cols, vals, n int) *table.Table {
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, []string{"M"})
	row := make([]string, cols)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = string(rune('a' + rng.Intn(vals)))
		}
		b.MustAddRow(row, rng.Float64()*10)
	}
	return b.Build()
}

func rulesOf(results []Result) []rule.Rule {
	out := make([]rule.Rule, len(results))
	for i, r := range results {
		out[i] = r.Rule
	}
	return out
}

func TestRunErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := randomTable(rng, 2, 2, 10)
	w := weight.NewSize(2)
	if _, _, err := Run(tab.All(), w, Options{K: 0}); err == nil {
		t.Error("K=0 must fail")
	}
	if _, _, err := Run(tab.All(), w, Options{K: 1, Base: rule.Trivial(3)}); err == nil {
		t.Error("base arity mismatch must fail")
	}
}

func TestEmptyTable(t *testing.T) {
	b := table.MustBuilder([]string{"A"}, nil)
	b.MustAddRow([]string{"x"})
	tab := b.Build().Filter(rule.Rule{rule.Star}).Select(nil)
	results, _, err := Run(tab.All(), weight.NewSize(1), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty table returned %d rules", len(results))
	}
}

func TestSingleStepMatchesExhaustiveBestMarginal(t *testing.T) {
	// The a-priori pruning must never discard the true best marginal rule
	// when mw bounds the optimum's weight. Compare every greedy step
	// against brute force on random tables.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		tab := randomTable(rng, 3, 3, 30)
		w := weight.NewSize(3)
		mw := 3.0
		var selected []rule.Rule
		for step := 0; step < 3; step++ {
			results, _, err := Run(tab.All(), w, Options{K: step + 1, MaxWeight: mw})
			if err != nil {
				t.Fatal(err)
			}
			got := score.SetScore(tab, w, score.CountAgg{}, rulesOf(results))

			_, bestGain := baseline.BestMarginalExhaustive(tab, w, nil, selected, mw)
			prev := score.SetScore(tab, w, score.CountAgg{}, selected)
			want := prev + bestGain
			if got < want-1e-9 {
				t.Fatalf("trial %d step %d: greedy score %g < exhaustive greedy %g",
					trial, step, got, want)
			}
			selected = rulesOf(results)
		}
	}
}

func TestApproximationRatioVsOptimal(t *testing.T) {
	// BRS must achieve ≥ (1 − ((k−1)/k)^k) of the true optimum (the greedy
	// guarantee for submodular maximization).
	rng := rand.New(rand.NewSource(3))
	const k = 2
	ratioBound := 1 - math.Pow(float64(k-1)/float64(k), float64(k))
	for trial := 0; trial < 25; trial++ {
		tab := randomTable(rng, 3, 2, 20)
		w := weight.NewSize(3)
		results, _, err := Run(tab.All(), w, Options{K: k, MaxWeight: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := score.SetScore(tab, w, score.CountAgg{}, rulesOf(results))
		_, opt, err := baseline.ExhaustiveBest(tab, w, nil, k, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if opt == 0 {
			continue
		}
		if got < ratioBound*opt-1e-9 {
			t.Fatalf("trial %d: BRS %g < %.3f × OPT %g", trial, got, ratioBound, opt)
		}
	}
}

func TestResultsOrderedByWeightDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := randomTable(rng, 4, 3, 60)
	results, _, err := Run(tab.All(), weight.NewSize(4), Options{K: 5, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Weight > results[i-1].Weight {
			t.Fatalf("results not weight-descending: %v", results)
		}
	}
}

// TestCountsAndMCountsConsistent: each rule the greedy yields shows its
// exact Count, and as MCount the marginal value its selection added over
// the rules selected before it, divided by its weight — at most the Count,
// and the Count itself for the first rule.
func TestCountsAndMCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng, 3, 3, 50)
	w := weight.NewSize(3)
	var selected []rule.Rule
	_, err := RunIncremental(tab.All(), w, Options{MaxWeight: 3}, 4, time.Time{}, func(r Result) bool {
		if got := float64(tab.Count(r.Rule)); got != r.Count {
			t.Fatalf("displayed count %g != exact %g for %v", r.Count, got, r.Rule)
		}
		if want := score.MarginalGain(tab, w, score.CountAgg{}, selected, r.Rule) / r.Weight; r.MCount != want {
			t.Fatalf("MCount of %v = %g, want its marginal value over its weight, %g", r.Rule, r.MCount, want)
		}
		if r.MCount > r.Count || len(selected) == 0 && r.MCount != r.Count {
			t.Fatalf("selection %d: MCount %g against Count %g", len(selected), r.MCount, r.Count)
		}
		selected = append(selected, r.Rule)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) < 2 {
		t.Fatalf("%d rules selected; the test needs a second", len(selected))
	}
}

func TestBaseRestrictsToSuperRules(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := randomTable(rng, 4, 3, 80)
	base := rule.Trivial(4).With(0, tab.Value(0, 0))
	sub := tab.Filter(base)
	results, _, err := Run(sub.All(), weight.NewSize(4), Options{K: 3, MaxWeight: 4, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("expected results under base rule")
	}
	for _, r := range results {
		if !r.Rule.SuperRuleOf(base) {
			t.Fatalf("%v is not a super-rule of base %v", r.Rule, base)
		}
		if r.Rule.Equal(base) {
			t.Fatal("base itself must not be returned (zero marginal)")
		}
	}
}

func TestStarConstraintForcesColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 4, 3, 80)
	const col = 2
	w := weight.StarConstraint{Inner: weight.NewSize(4), Column: col}
	results, _, err := Run(tab.All(), w, Options{K: 3, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("expected results")
	}
	for _, r := range results {
		if r.Rule[col] == rule.Star {
			t.Fatalf("star drill-down returned %v without column %d", r.Rule, col)
		}
	}
}

func TestSumAggregate(t *testing.T) {
	b := table.MustBuilder([]string{"A", "B"}, []string{"M"})
	// Value "heavy" is rare but carries huge mass; Count would ignore it,
	// Sum must surface it.
	for i := 0; i < 50; i++ {
		b.MustAddRow([]string{"common", "x"}, 1)
	}
	for i := 0; i < 3; i++ {
		b.MustAddRow([]string{"heavy", "y"}, 1000)
	}
	tab := b.Build()
	w := weight.NewSize(2)
	agg := score.SumAgg{Measure: 0}
	results, _, err := Run(tab.All(), w, Options{K: 1, MaxWeight: 2, Agg: agg})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	cells := tab.DecodeRule(results[0].Rule)
	if cells[0] != "heavy" && cells[1] != "y" {
		t.Fatalf("Sum aggregate should pick the heavy rule, got %v with mass %g",
			cells, results[0].Count)
	}
	if results[0].Count != 3000 {
		t.Fatalf("Sum count = %g, want 3000", results[0].Count)
	}
}

// BenchmarkSumAggregate measures the Section 6.3 Sum variant against plain
// Count on the department-store example, both at the default worker count.
func BenchmarkSumAggregate(b *testing.B) {
	tab := datagen.StoreSales(42)
	tab.Index().Warm()
	w := weight.NewSize(tab.NumCols())
	m, err := tab.MeasureIndex("Sales")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		agg  score.Aggregator
	}{
		{"count", nil},
		{"sum", score.SumAgg{Measure: m, Label: "Sales"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(tab.All(), w, Options{K: 3, MaxWeight: 3, Agg: c.agg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGreedyStepIsArgmax checks the literal contract of Algorithm 2 against
// brute force, not against another engine configuration: on tiny tables,
// every greedy step's selected rule must attain the maximum marginal value
// over every super-rule of the base with weight ≤ mw, and the search may
// stop short of K only when no rule has positive marginal value left. That
// subsumes pruning soundness — a-priori pruning that ever discarded the
// best rule would lose a step here. Six steps exercise the lazy refresh
// across five selections, and every fifth table repeats a column, so twin
// rules tie exactly at every step. 120 tables keep table 54 in the run: a
// Sum table under a non-trivial base where a cached child's marginal and
// its parent's bound differ in the last ulp (TestEquivalenceMergeIsNotGated
// is that table by hand). Under Count, whose sums are exact, the fast path
// must also stream exactly the oracle's rules.
func TestGreedyStepIsArgmax(t *testing.T) {
	pruned := 0
	eachOracleCase(t, func(trial int, tab *table.Table, w weight.Weighter, opts Options, want []Result) {
		label := fmt.Sprintf("trial %d", trial)
		requireGreedyArgmax(t, label+" oracle", tab, w, opts, opts.K, want)
		var got []Result
		stats, err := RunIncremental(tab.All(), w, opts, opts.K, time.Time{}, func(r Result) bool {
			got = append(got, r)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		requireGreedyArgmax(t, label, tab, w, opts, opts.K, got)
		if _, exact := opts.Agg.(score.CountAgg); exact {
			sameResults(t, label+" vs the oracle", got, want)
		}
		ranked, _, err := Run(tab.All(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireList(t, label, w, ranked, got)
		pruned += stats.CandidatesPruned
	})
	if pruned == 0 {
		t.Error("a-priori pruning never engaged (CandidatesPruned == 0 everywhere)")
	}
}

// eachOracleCase calls fn on the 120 brute-forceable cases of the argmax
// oracle — tiny measured tables, Size and Bits weighting, Count and Sum,
// trivial and non-trivial bases, a drawn mw, six rules — with the stream
// brsref makes of each, after checking the list properties of brsref's
// output there.
func eachOracleCase(t *testing.T, fn func(trial int, tab *table.Table, w weight.Weighter, opts Options, want []Result)) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 120; trial++ {
		cols := 2 + rng.Intn(3)
		tab := randomMeasuredTable(rng, cols, 2+rng.Intn(3), 20+rng.Intn(60))
		if trial%5 == 4 {
			tab = withDuplicateColumn(tab, rng.Intn(cols))
			cols++
		}

		var w weight.Weighter = weight.NewSize(cols)
		if trial%2 == 1 {
			w = weight.BitsFor(tab)
		}
		var agg score.Aggregator = score.CountAgg{}
		if trial%4 >= 2 {
			agg = score.SumAgg{Measure: 0}
		}
		base := rule.Trivial(cols)
		if trial%3 == 0 {
			base = base.With(rng.Intn(cols), 0)
		}
		mw := w.MaxWeight(1 + rng.Intn(cols))
		opts := Options{K: 6, MaxWeight: mw, Base: base, Agg: agg}
		want := oracleStream(tab.All(), w, opts, opts.K)
		requireList(t, fmt.Sprintf("trial %d oracle", trial), w, oracleRun(tab.All(), w, opts), want)
		fn(trial, tab, w, opts, want)
	}
}

// requireGreedyArgmax checks a greedy selection, in selection order, against
// brute force over the search space of Problem 3 under opts — supported
// strict super-rules of the base, no heavier than mw: every rule attains the
// maximum marginal value given the rules before it, and a selection shorter
// than k leaves no positive marginal value behind.
func requireGreedyArgmax(t *testing.T, label string, tab *table.Table, w weight.Weighter, opts Options, k int, got []Result) {
	t.Helper()
	agg := opts.Agg
	if agg == nil {
		agg = score.CountAgg{}
	}
	var universe []rule.Rule
	for _, r := range baseline.EnumerateSupportedRules(tab) {
		if opts.Base.SubRuleOf(r) && !r.Equal(opts.Base) && weight.WeightRule(w, r) <= opts.MaxWeight {
			universe = append(universe, r)
		}
	}
	bestGain := func(selected []rule.Rule) float64 {
		best := 0.0
		for _, r := range universe {
			best = math.Max(best, score.MarginalGain(tab, w, agg, selected, r))
		}
		return best
	}
	var selected []rule.Rule
	for step, r := range got {
		want := bestGain(selected)
		if gain := score.MarginalGain(tab, w, agg, selected, r.Rule); gain < want-1e-9*math.Max(1, want) {
			t.Fatalf("%s step %d: selected %v with marginal value %g, but %g is attainable", label, step, r.Rule, gain, want)
		}
		selected = append(selected, r.Rule)
	}
	if len(selected) < k {
		if left := bestGain(selected); left > 1e-9 {
			t.Fatalf("%s: stopped after %d rules with marginal value %g still attainable", label, len(selected), left)
		}
	}
}

func TestLowMaxWeightNeverBeatsHighMaxWeight(t *testing.T) {
	// Smaller mw may be suboptimal but can never *exceed* the score found
	// with a sufficient mw, and all returned rules must respect the cap.
	rng := rand.New(rand.NewSource(9))
	tab := randomTable(rng, 4, 2, 60)
	w := weight.NewSize(4)
	full, _, _ := Run(tab.All(), w, Options{K: 3, MaxWeight: 4})
	low, _, _ := Run(tab.All(), w, Options{K: 3, MaxWeight: 1})
	sf := score.SetScore(tab, w, score.CountAgg{}, rulesOf(full))
	sl := score.SetScore(tab, w, score.CountAgg{}, rulesOf(low))
	if sl > sf+1e-9 {
		t.Fatalf("mw=1 score %g > mw=4 score %g", sl, sf)
	}
	for _, r := range low {
		if r.Weight > 1 {
			t.Fatalf("rule %v exceeds mw=1 with weight %g", r.Rule, r.Weight)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tab := randomTable(rng, 4, 3, 100)
	w := weight.BitsFor(tab)
	a, _, _ := Run(tab.All(), w, Options{K: 4, MaxWeight: 12})
	b, _, _ := Run(tab.All(), w, Options{K: 4, MaxWeight: 12})
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if !a[i].Rule.Equal(b[i].Rule) {
			t.Fatalf("nondeterministic rule %d: %v vs %v", i, a[i].Rule, b[i].Rule)
		}
	}
}

func TestKLargerThanRuleSpace(t *testing.T) {
	b := table.MustBuilder([]string{"A"}, nil)
	b.MustAddRow([]string{"x"})
	b.MustAddRow([]string{"x"})
	b.MustAddRow([]string{"y"})
	tab := b.Build()
	results, _, err := Run(tab.All(), weight.NewSize(1), Options{K: 10, MaxWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only two rules have positive marginal value: (x) and (y).
	if len(results) != 2 {
		t.Fatalf("got %d rules, want 2", len(results))
	}
}

// TestStatsAccounting: a Sum search over a whole table makes one row pass,
// its level 1, and walks the index for everything else.
func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomMeasuredTable(rng, 3, 3, 50)
	_, stats, err := Run(tab.All(), weight.NewSize(3), Options{K: 2, MaxWeight: 3, Agg: score.SumAgg{Measure: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 1 || stats.RowsScanned != 50 || stats.CandidatesCounted == 0 || stats.IndexLevels == 0 {
		t.Fatalf("stats not recorded: %+v", stats)
	}
}

func TestCandidateCap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := randomTable(rng, 5, 4, 200)
	defer func(cap int) { maxCandidates = cap }(maxCandidates)
	maxCandidates = 4
	_, stats, err := Run(tab.All(), weight.NewSize(5), Options{K: 2, MaxWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CandidateCapHit {
		t.Fatal("expected the candidate cap to trip")
	}
}

func TestBitsWeightingEndToEnd(t *testing.T) {
	// Under Bits weighting, instantiating a high-cardinality column must
	// beat a binary column with the same count.
	b := table.MustBuilder([]string{"Binary", "Wide"}, nil)
	for i := 0; i < 40; i++ {
		b.MustAddRow([]string{"yes", "w0"})
	}
	for i := 0; i < 60; i++ {
		b.MustAddRow([]string{"no", string(rune('a' + i%9))})
	}
	tab := b.Build()
	w := weight.BitsFor(tab)
	results, _, err := Run(tab.All(), w, Options{K: 1, MaxWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	cells := tab.DecodeRule(results[0].Rule)
	// (yes, w0) covers 40 tuples at weight 1+4=5 → 200; (no, ?) covers 60
	// at weight 1 → 60; (?, w0) covers 40 at weight 4 → 160.
	if cells[0] != "yes" || cells[1] != "w0" {
		t.Fatalf("Bits should pick the double-column rule, got %v", cells)
	}
}
