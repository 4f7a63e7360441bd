package score

import (
	"math"
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// fixture builds the paper's department-store sketch: 6 tuples over 2
// columns where hand-computed scores are easy.
func fixture(t *testing.T) *table.Table {
	t.Helper()
	b := table.MustBuilder([]string{"A", "B"}, []string{"M"})
	rows := [][2]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}, {"c", "z"},
	}
	for i, r := range rows {
		b.MustAddRow([]string{r[0], r[1]}, float64(i+1))
	}
	return b.Build()
}

// mustRule encodes a pattern or fails the test.
func mustRule(t *testing.T, tab *table.Table, pattern map[string]string) rule.Rule {
	t.Helper()
	r, err := tab.EncodeRule(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSetScoreHandComputed(t *testing.T) {
	tab := fixture(t)
	w := weight.NewSize(2)
	ra := mustRule(t, tab, map[string]string{"A": "a"})            // covers rows 0,1,2
	rax := mustRule(t, tab, map[string]string{"A": "a", "B": "x"}) // covers rows 0,1

	// Weight-descending order: (a,x) then (a,?).
	// MCount(a,x) = 2 → contributes 2·2 = 4.
	// MCount(a,?) = 1 (row 2 only) → contributes 1·1 = 1.
	got := SetScore(tab, w, CountAgg{}, []rule.Rule{ra, rax})
	if got != 5 {
		t.Fatalf("SetScore = %g, want 5", got)
	}
}

func TestLemma1OrderingOptimal(t *testing.T) {
	// Lemma 1: sorting rules by descending weight never lowers the list
	// score. Check on random tables against all permutations.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		tab := randomTable(rng, 3, 3, 30)
		w := weight.NewSize(3)
		rules := randomRules(rng, tab, 3)
		sortedScore := SetScore(tab, w, CountAgg{}, rules)
		permute(rules, func(perm []rule.Rule) {
			if s := ListScore(tab, w, CountAgg{}, perm); s > sortedScore+1e-9 {
				t.Fatalf("permutation %v scores %g > sorted %g", perm, s, sortedScore)
			}
		})
	}
}

func TestTopWeights(t *testing.T) {
	tab := fixture(t)
	w := weight.NewSize(2)
	ra := mustRule(t, tab, map[string]string{"A": "a"})
	rax := mustRule(t, tab, map[string]string{"A": "a", "B": "x"})
	top := TopWeights(tab, w, []rule.Rule{ra, rax})
	want := []float64{2, 2, 1, 0, 0, 0}
	for i, v := range want {
		if top[i] != v {
			t.Fatalf("TopWeights[%d] = %g, want %g (full: %v)", i, top[i], v, top)
		}
	}
}

func TestSumAggregate(t *testing.T) {
	tab := fixture(t)
	w := weight.NewSize(2)
	ra := mustRule(t, tab, map[string]string{"A": "a"})
	agg := SumAgg{Measure: 0, Label: "M"}
	// Rows 0,1,2 have measures 1,2,3 → Sum = 6; weight 1 → score 6.
	if got := SetScore(tab, w, agg, []rule.Rule{ra}); got != 6 {
		t.Fatalf("Sum score = %g, want 6", got)
	}
	if agg.Name() != "Sum(M)" {
		t.Fatalf("agg name = %q", agg.Name())
	}
	if (SumAgg{}).Name() != "Sum" {
		t.Fatal("unlabeled SumAgg name")
	}
}

func TestSumAggClampsNegatives(t *testing.T) {
	b := table.MustBuilder([]string{"A"}, []string{"M"})
	b.MustAddRow([]string{"x"}, -5)
	b.MustAddRow([]string{"x"}, 3)
	tab := b.Build()
	agg := SumAgg{Measure: 0}
	if got := agg.Mass(tab, 0); got != 0 {
		t.Fatalf("negative mass = %g, want clamped 0", got)
	}
	if got := agg.Mass(tab, 1); got != 3 {
		t.Fatalf("mass = %g", got)
	}
}

func TestMarginalGainMatchesScoreDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		tab := randomTable(rng, 3, 3, 25)
		w := weight.NewSize(3)
		rules := randomRules(rng, tab, 2)
		r := randomRules(rng, tab, 1)[0]
		gain := MarginalGain(tab, w, CountAgg{}, rules, r)
		withR := SetScore(tab, w, CountAgg{}, append(append([]rule.Rule{}, rules...), r))
		without := SetScore(tab, w, CountAgg{}, rules)
		if math.Abs(gain-(withR-without)) > 1e-9 {
			t.Fatalf("MarginalGain %g != score diff %g (rules=%v r=%v)",
				gain, withR-without, rules, r)
		}
	}
}

// TestSubmodularity checks Lemma 3 on random instances: for S ⊆ S' and any
// rule s, the marginal gain of s w.r.t. S is ≥ its gain w.r.t. S'.
func TestSubmodularity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 80; trial++ {
		tab := randomTable(rng, 3, 3, 25)
		w := weight.NewSize(3)
		small := randomRules(rng, tab, 2)
		big := append(append([]rule.Rule{}, small...), randomRules(rng, tab, 2)...)
		s := randomRules(rng, tab, 1)[0]
		gainSmall := MarginalGain(tab, w, CountAgg{}, small, s)
		gainBig := MarginalGain(tab, w, CountAgg{}, big, s)
		if gainBig > gainSmall+1e-9 {
			t.Fatalf("submodularity violated: gain(S)=%g < gain(S')=%g", gainSmall, gainBig)
		}
	}
}

func TestSortByWeightDescStable(t *testing.T) {
	tab := fixture(t)
	w := weight.NewSize(2)
	ra := mustRule(t, tab, map[string]string{"A": "a"})
	rb := mustRule(t, tab, map[string]string{"A": "b"})
	rax := mustRule(t, tab, map[string]string{"A": "a", "B": "x"})
	sorted := SortByWeightDesc(w, []rule.Rule{ra, rb, rax})
	if !sorted[0].Equal(rax) {
		t.Fatalf("heaviest first: got %v", sorted[0])
	}
	// Equal weights tie-break deterministically by key.
	again := SortByWeightDesc(w, []rule.Rule{rb, ra, rax})
	for i := range sorted {
		if !sorted[i].Equal(again[i]) {
			t.Fatal("sort must be deterministic regardless of input order")
		}
	}
}

// --- helpers ---

// randomTable builds a cols-column table with vals distinct values per
// column and n rows.
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

// randomRules derives k rules from random table rows with random stars, so
// every rule has support.
func randomRules(rng *rand.Rand, tab *table.Table, k int) []rule.Rule {
	rules := make([]rule.Rule, k)
	buf := make([]rule.Value, tab.NumCols())
	for i := range rules {
		tab.Row(rng.Intn(tab.NumRows()), buf)
		r := rule.FromValues(buf)
		for c := range r {
			if rng.Intn(2) == 0 {
				r[c] = rule.Star
			}
		}
		rules[i] = r
	}
	return rules
}

// permute invokes fn with every permutation of rules (n ≤ 4 in tests).
func permute(rules []rule.Rule, fn func([]rule.Rule)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(rules) {
			fn(rules)
			return
		}
		for i := k; i < len(rules); i++ {
			rules[k], rules[i] = rules[i], rules[k]
			rec(k + 1)
			rules[k], rules[i] = rules[i], rules[k]
		}
	}
	rec(0)
}

// TestExactSums: exact only under Count, integral weights and mw, and
// mw times the mass below 2^53 — the boundary itself is not exact.
func TestExactSums(t *testing.T) {
	size := weight.NewSize(4)
	huge := weight.NewLinear([]float64{1 << 50, 1<<50 + 1}, 1, "huge")
	for _, c := range []struct {
		name     string
		agg      Aggregator
		w        weight.Weighter
		mw, mass float64
		want     bool
	}{
		{"count", CountAgg{}, size, 4, 1e6, true},
		{"sum", SumAgg{}, size, 4, 1e6, false},
		{"fractional weights", CountAgg{}, weight.NewLinear([]float64{0.5, 1}, 1, ""), 1, 10, false},
		{"power", CountAgg{}, weight.NewLinear([]float64{1, 2}, 2, ""), 9, 10, false},
		{"fractional mw", CountAgg{}, size, 2.5, 10, false},
		{"below 2^53", CountAgg{}, huge, 1 << 50, 7, true},
		{"at 2^53", CountAgg{}, huge, 1 << 50, 8, false},
		{"past 2^53", CountAgg{}, huge, huge.MaxWeight(2), 4, false},
		{"unbounded", CountAgg{}, size, math.Inf(1), 1, false},
	} {
		if got := ExactSums(c.agg, c.w, c.mw, c.mass); got != c.want {
			t.Errorf("%s: ExactSums = %v, want %v", c.name, got, c.want)
		}
	}
}
