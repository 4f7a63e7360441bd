package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// drawRows is Section 4.3's Create for one filter: one scan of the store
// filling a reservoir of up to capacity rows covered by filter.
func drawRows(store *storage.Store, filter rule.Rule, capacity int, rng *rand.Rand) *Sample {
	return rowPopulation{store: store}.draw([]rule.Rule{filter}, []int{capacity}, rng)[0]
}

// stripes builds a 1-column table with n rows alternating over vals values.
func stripes(n, vals int) *table.Table {
	b := table.MustBuilder([]string{"A"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{string(rune('a' + i%vals))})
	}
	return b.Build()
}

func TestReservoirExactWhenSmall(t *testing.T) {
	res := newReservoir(10, NewTestRNG(1))
	for i := 0; i < 7; i++ {
		res.offer(i)
	}
	if len(res.rows) != 7 || res.seen != 7 {
		t.Fatalf("reservoir rows=%d seen=%d", len(res.rows), res.seen)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Offer 100 items into a size-10 reservoir many times; each item's
	// inclusion frequency must be ≈ 0.1. With 3000 trials the standard
	// error is ~0.0055, so ±0.03 is a >5σ bound.
	const items, capacity, trials = 100, 10, 3000
	rng := NewTestRNG(2)
	freq := make([]int, items)
	for trial := 0; trial < trials; trial++ {
		res := newReservoir(capacity, rng)
		for i := 0; i < items; i++ {
			res.offer(i)
		}
		for _, i := range res.rows {
			freq[i]++
		}
	}
	want := float64(capacity) / float64(items)
	for i, f := range freq {
		p := float64(f) / trials
		if math.Abs(p-want) > 0.03 {
			t.Fatalf("item %d included with frequency %.4f, want %.2f±0.03", i, p, want)
		}
	}
}

func TestCreateSampleExactCountAndScale(t *testing.T) {
	tab := stripes(1000, 4) // 250 rows per value
	store := storage.NewStore(tab)
	filter, _ := tab.EncodeRule(map[string]string{"A": "a"})
	s := drawRows(store, filter, 100, NewTestRNG(3))
	if s.ExactCount != 250 {
		t.Fatalf("ExactCount = %d, want 250", s.ExactCount)
	}
	if len(s.Rows) != 100 {
		t.Fatalf("sample size = %d, want 100", len(s.Rows))
	}
	if got := s.Scale(); got != 2.5 {
		t.Fatalf("Scale = %g, want 2.5", got)
	}
	if got := s.Rate(); got != 0.4 {
		t.Fatalf("Rate = %g, want 0.4", got)
	}
	for _, i := range s.Rows {
		if !tab.Covers(filter, i) {
			t.Fatalf("sampled row %d not covered by filter", i)
		}
	}
	if !sort.IntsAreSorted(s.Rows) {
		t.Fatal("the draw's rows are not ascending")
	}
	if store.Stats().FullScans != 1 {
		t.Fatal("a Create must cost exactly one scan")
	}
}

func TestCreateSampleSmallCoverage(t *testing.T) {
	tab := stripes(100, 50) // 2 rows per value
	store := storage.NewStore(tab)
	filter, _ := tab.EncodeRule(map[string]string{"A": "a"})
	s := drawRows(store, filter, 10, NewTestRNG(4))
	if len(s.Rows) != 2 || s.ExactCount != 2 {
		t.Fatalf("exhaustive small sample: rows=%d exact=%d", len(s.Rows), s.ExactCount)
	}
	if s.Scale() != 1 {
		t.Fatalf("exhaustive sample scale = %g, want 1", s.Scale())
	}
}

func TestSampleZeroValues(t *testing.T) {
	s := &Sample{}
	if s.Rate() != 0 || s.Scale() != 0 || s.Size() != 0 {
		t.Fatal("zero sample must report zero rate/scale/size")
	}
}

func TestMethodString(t *testing.T) {
	if Find.String() != "Find" || Combine.String() != "Combine" || Create.String() != "Create" {
		t.Fatal("method names")
	}
	if Method(42).String() != "Unknown" {
		t.Fatal("unknown method name")
	}
}
