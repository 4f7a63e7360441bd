package drill

import (
	"math"
	"math/rand"
	"testing"

	"smartdrill/internal/score"
	"smartdrill/internal/table"
)

// buildSalesTable makes a 2-column table with a Sales measure whose totals
// per group are known.
func buildSalesTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	b := table.MustBuilder([]string{"Store", "Region"}, []string{"Sales"})
	stores := []string{"A", "B", "C", "D"}
	regions := []string{"N", "S", "E", "W"}
	for i := 0; i < n; i++ {
		s := stores[rng.Intn(len(stores))]
		r := regions[rng.Intn(len(regions))]
		b.MustAddRow([]string{s, r}, 1+rng.Float64()*99)
	}
	return b.Build()
}

// TestSumEstimatesUnderSampling verifies the Section 6.3 + Section 4
// combination: Sum aggregates computed on a uniform sample and scaled by
// 1/p are (nearly) unbiased estimates of the true group sums. The scale
// factor derived for counts applies unchanged because each tuple's mass
// enters the sample with the same inclusion probability.
func TestSumEstimatesUnderSampling(t *testing.T) {
	tab := buildSalesTable(30000, 5)
	m, err := tab.MeasureIndex("Sales")
	if err != nil {
		t.Fatal(err)
	}
	agg := score.SumAgg{Measure: m, Label: "Sales"}
	s, err := NewSession(tab, Config{
		K: 3, MaxWeight: 2, Agg: agg,
		SampleMemory: 20000, MinSampleSize: 4000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if len(s.Root().Children) == 0 {
		t.Fatal("no rules")
	}
	for _, k := range s.Root().Children {
		// True Sum over the full table.
		truth := 0.0
		for i := 0; i < tab.NumRows(); i++ {
			if tab.Covers(k.Rule, i) {
				truth += agg.Mass(tab, i)
			}
		}
		if truth == 0 {
			t.Fatalf("displayed rule %v has zero true sum", k.Rule)
		}
		if rel := math.Abs(k.Count-truth) / truth; rel > 0.15 {
			t.Fatalf("Sum estimate %g vs truth %g (rel err %.3f) for %v",
				k.Count, truth, rel, k.Rule)
		}
	}
}

// TestSumPrefetchKeepsMassEstimates is the regression test for prefetch
// count refinement under Sum: samples built by the prefetch carry exact
// *tuple* counts, which must never overwrite a displayed Sum (a mass).
// The constant measure of 0.1 per tuple makes the corruption a clean 10×
// inflation — far outside any sampling error — while keeping the displayed
// masses small enough that the prefetch allocator builds the per-child
// samples whose filters match displayed rules.
func TestSumPrefetchKeepsMassEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := table.MustBuilder([]string{"Store", "Region"}, []string{"Sales"})
	stores := []string{"A", "B", "C", "D"}
	regions := []string{"N", "S", "E", "W"}
	for i := 0; i < 30000; i++ {
		b.MustAddRow([]string{
			stores[rng.Intn(len(stores))],
			regions[rng.Intn(len(regions))],
		}, 0.1)
	}
	tab := b.Build()
	m, err := tab.MeasureIndex("Sales")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tab, Config{
		K: 3, MaxWeight: 2, Agg: score.SumAgg{Measure: m, Label: "Sales"},
		SampleMemory: 20000, MinSampleSize: 4000, Prefetch: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if len(s.Root().Children) == 0 {
		t.Fatal("no rules")
	}
	// The fixture must actually exercise the refinement path: at least one
	// prefetched sample's filter matches a displayed (non-root) rule.
	matched := false
	for _, smp := range s.Handler().Samples() {
		if node := s.findNode(s.root, smp.Filter); node != nil && node != s.Root() {
			matched = true
		}
	}
	if !matched {
		t.Fatal("fixture: prefetch built no per-child samples; the refinement path is unexercised")
	}
	for _, k := range s.Root().Children {
		trueSum := float64(tab.Count(k.Rule)) * 0.1
		if rel := math.Abs(k.Count-trueSum) / trueSum; rel > 0.15 {
			t.Fatalf("Sum display %g vs truth %g (rel err %.3f) for %v — prefetch overwrote the mass estimate?",
				k.Count, trueSum, rel, k.Rule)
		}
		if k.Exact {
			t.Fatalf("prefetch must not mark Sum estimates exact (node %v)", k.Rule)
		}
	}
}

// TestCountPrefetchStillRefines pins the intended behavior on the other
// side of the fix: under the Count aggregate, prefetch-created samples do
// upgrade displayed estimates to their exact coverage counts.
func TestCountPrefetchStillRefines(t *testing.T) {
	tab := buildSalesTable(30000, 11)
	s, err := NewSession(tab, Config{
		K: 3, MaxWeight: 2,
		SampleMemory: 20000, MinSampleSize: 4000, Prefetch: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	refined := 0
	for _, k := range s.Root().Children {
		if k.Exact {
			refined++
			if k.Count != float64(tab.Count(k.Rule)) {
				t.Fatalf("refined count %g != exact %d for %v", k.Count, tab.Count(k.Rule), k.Rule)
			}
			if k.CILow != k.Count || k.CIHigh != k.Count {
				t.Fatalf("refined node %v kept a non-degenerate CI [%g,%g]", k.Rule, k.CILow, k.CIHigh)
			}
		}
	}
	if refined == 0 {
		t.Fatal("prefetch refined no displayed count under the Count aggregate")
	}
}

// TestRootSumExact checks the root of a Sum session shows the exact total:
// the table's memoised mass is the row-order sum to the bit (snapshots and
// resumed trees are compared byte for byte), on every session that asks.
func TestRootSumExact(t *testing.T) {
	tab := buildSalesTable(1000, 6)
	m, _ := tab.MeasureIndex("Sales")
	agg := score.SumAgg{Measure: m}
	s, err := NewSession(tab, Config{K: 2, Agg: agg})
	if err != nil {
		t.Fatal(err)
	}
	truth := 0.0
	for i := 0; i < tab.NumRows(); i++ {
		truth += agg.Mass(tab, i)
	}
	again, err := NewSession(tab, Config{K: 2, Agg: agg})
	if err != nil {
		t.Fatal(err)
	}
	if s.Root().Count != truth || again.Root().Count != truth {
		t.Fatalf("root sums %v and %v, want %v", s.Root().Count, again.Root().Count, truth)
	}
}
