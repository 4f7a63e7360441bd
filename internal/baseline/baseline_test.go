package baseline

import (
	"math/rand"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func fixture(t *testing.T) *table.Table {
	t.Helper()
	b := table.MustBuilder([]string{"Store", "Product"}, []string{"Sales"})
	rows := []struct {
		s, p string
		m    float64
	}{
		{"Walmart", "cookies", 5},
		{"Walmart", "milk", 7},
		{"Walmart", "cookies", 2},
		{"Target", "bikes", 100},
		{"Costco", "milk", 3},
	}
	for _, r := range rows {
		b.MustAddRow([]string{r.s, r.p}, r.m)
	}
	return b.Build()
}

func TestTraditionalDrillDown(t *testing.T) {
	tab := fixture(t)
	groups, err := TraditionalDrillDown(tab.All(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	if groups[0].Value != "Walmart" || groups[0].Count != 3 {
		t.Fatalf("top group = %+v", groups[0])
	}
	// Count-descending, then value order.
	if groups[1].Count > groups[0].Count {
		t.Fatal("groups not count-ordered")
	}
	// Every group rule instantiates exactly the drilled column.
	for _, g := range groups {
		if g.Rule.Size() != 1 || g.Rule[0] == rule.Star {
			t.Fatalf("group rule = %v", g.Rule)
		}
	}
}

func TestTraditionalDrillDownWithBase(t *testing.T) {
	tab := fixture(t)
	base, _ := tab.EncodeRule(map[string]string{"Store": "Walmart"})
	groups, err := TraditionalDrillDown(tab.All(), base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (cookies, milk)", len(groups))
	}
	if groups[0].Value != "cookies" || groups[0].Count != 2 {
		t.Fatalf("top = %+v", groups[0])
	}
}

func TestTraditionalDrillDownSum(t *testing.T) {
	tab := fixture(t)
	groups, err := TraditionalDrillDown(tab.All(), nil, 0, score.SumAgg{Measure: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Target's single 100-sales tuple outranks Walmart's 14.
	if groups[0].Value != "Target" || groups[0].Count != 100 {
		t.Fatalf("top by Sum = %+v", groups[0])
	}
}

func TestTraditionalDrillDownErrors(t *testing.T) {
	tab := fixture(t)
	if _, err := TraditionalDrillDown(tab.All(), nil, 9, nil); err == nil {
		t.Error("out-of-range column should fail")
	}
}

func TestEnumerateSupportedRules(t *testing.T) {
	b := table.MustBuilder([]string{"A", "B"}, nil)
	b.MustAddRow([]string{"x", "y"})
	b.MustAddRow([]string{"x", "z"})
	tab := b.Build()
	rules := EnumerateSupportedRules(tab)
	// Patterns: (x,?), (?,y), (?,z), (x,y), (x,z) — 5 distinct non-trivial.
	if len(rules) != 5 {
		t.Fatalf("got %d rules, want 5: %v", len(rules), rules)
	}
	for _, r := range rules {
		if tab.Count(r) == 0 {
			t.Fatalf("unsupported rule %v enumerated", r)
		}
		if r.IsTrivial() {
			t.Fatal("trivial rule must not be enumerated")
		}
	}
}

func TestExhaustiveBestHandComputed(t *testing.T) {
	// Table where the optimum is easy to verify: two disjoint clusters.
	b := table.MustBuilder([]string{"A", "B"}, nil)
	for i := 0; i < 10; i++ {
		b.MustAddRow([]string{"a", "x"})
	}
	for i := 0; i < 6; i++ {
		b.MustAddRow([]string{"b", "y"})
	}
	tab := b.Build()
	w := weight.NewSize(2)
	best, bestScore, err := ExhaustiveBest(tab, w, nil, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: (a,x) and (b,y), both weight 2 → 2·10 + 2·6 = 32.
	if bestScore != 32 {
		t.Fatalf("optimal score = %g, want 32 (rules %v)", bestScore, best)
	}
	if len(best) != 2 {
		t.Fatalf("optimal set size = %d", len(best))
	}
	for _, r := range best {
		if r.Size() != 2 {
			t.Fatalf("optimal rule %v should instantiate both columns", r)
		}
	}
}

func TestExhaustiveBestCapEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"A", "B", "C"}
	b := table.MustBuilder(names, nil)
	row := make([]string, 3)
	for i := 0; i < 50; i++ {
		for c := range row {
			row[c] = string(rune('a' + rng.Intn(5)))
		}
		b.MustAddRow(row)
	}
	tab := b.Build()
	if _, _, err := ExhaustiveBest(tab, weight.NewSize(3), nil, 2, 10); err == nil {
		t.Error("rule-universe cap should be enforced")
	}
}

func TestBestMarginalExhaustiveRespectsMW(t *testing.T) {
	tab := fixture(t)
	w := weight.NewSize(2)
	r, gain := BestMarginalExhaustive(tab, w, nil, nil, 1)
	if r == nil || gain <= 0 {
		t.Fatal("expected a best marginal rule")
	}
	if weight.WeightRule(w, r) > 1 {
		t.Fatalf("rule %v exceeds mw=1", r)
	}
}
