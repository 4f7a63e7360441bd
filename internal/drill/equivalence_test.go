package drill

import (
	"math/rand"
	"testing"

	"smartdrill/internal/brs"
	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The index layer is a pure access-path change: every expansion answered
// from posting-list views must be bit-identical to the scan-and-materialize
// reference under the Count aggregate. These tests run in CI under -race
// with Workers > 1, so the shared lazy index build is exercised
// concurrently with parallel BRS passes.

func sameResults(t *testing.T, label string, got, want []brs.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rules, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Rule.Equal(want[i].Rule) {
			t.Fatalf("%s: rule %d = %v, want %v", label, i, got[i].Rule, want[i].Rule)
		}
		if got[i].Weight != want[i].Weight || got[i].Count != want[i].Count || got[i].MCount != want[i].MCount {
			t.Fatalf("%s: rule %v stats (%v,%v,%v) != (%v,%v,%v)", label, got[i].Rule,
				got[i].Weight, got[i].Count, got[i].MCount,
				want[i].Weight, want[i].Count, want[i].MCount)
		}
	}
}

func randomEquivTable(rng *rand.Rand, cols, vals, n int) *table.Table {
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

// TestIndexViewMatchesScanBRS drives BRS through all three access paths —
// index-backed zero-copy view, scan-backed materialized table, and
// self-restricting full view — and demands bit-identical results.
func TestIndexViewMatchesScanBRS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := weight.NewSize(4)
	for trial := 0; trial < 10; trial++ {
		tab := randomEquivTable(rng, 4, 3, 400)
		base := rule.Trivial(4).With(rng.Intn(4), rule.Value(rng.Intn(3)))
		for _, workers := range []int{0, 4} {
			opts := brs.Options{K: 3, MaxWeight: 4, Workers: workers}

			scanOpts := opts
			scanOpts.Base, scanOpts.BaseCovered = base, true
			scanTab := tab.Select(tab.FilterIndicesScan(base))
			want, _, err := brs.Run(scanTab.All(), w, scanOpts)
			if err != nil {
				t.Fatal(err)
			}

			idxOpts := opts
			idxOpts.Base, idxOpts.BaseCovered = base, true
			got, _, err := brs.Run(tab.ViewOf(tab.FilterIndices(base)), w, idxOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "index view vs scan", got, want)

			fullOpts := opts
			fullOpts.Base = base // BaseCovered false: brs restricts itself
			got, _, err = brs.Run(tab.All(), w, fullOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "self-restricting view vs scan", got, want)
		}
	}
}

// TestExpandIndexMatchesScanReference checks the full session path: a
// drill-down served by index-backed views (with parallel workers) must
// reproduce, bit for bit, brsref — the paper's Algorithms 1–2 as written,
// sharing no code with the BRS runner — on the materialized scan-filtered
// table.
func TestExpandIndexMatchesScanReference(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	walmart := s.Root().Children[2] // deepest-weighted slot varies; any child works
	if err := s.Expand(walmart); err != nil {
		t.Fatal(err)
	}

	w := weight.NewSize(tab.NumCols())
	sub := tab.Select(tab.FilterIndicesScan(walmart.Rule))
	mw := EstimateMaxWeight(sub.All(), w, s.K(), 1)
	want, _ := brsref.Run(sub.All(), w, brsref.Options{K: 3, MaxWeight: mw, Base: walmart.Rule})
	if len(walmart.Children) != len(want) {
		t.Fatalf("session expanded %d rules, the oracle %d", len(walmart.Children), len(want))
	}
	for i, child := range walmart.Children {
		if !child.Rule.Equal(want[i].Rule) {
			t.Fatalf("child %d rule %v, the oracle %v", i, child.Rule, want[i].Rule)
		}
		if child.Count != want[i].Count || child.Weight != want[i].Weight {
			t.Fatalf("child %v count/weight (%v,%v), the oracle (%v,%v)",
				child.Rule, child.Count, child.Weight, want[i].Count, want[i].Weight)
		}
		if !child.Exact {
			t.Fatalf("direct expansion must be exact")
		}
	}
}

// TestExpandUsesIndexNotScans asserts the access-path claim itself: a
// direct (unsampled) drill-down on a non-trivial rule is served entirely
// from the inverted index — index lookups are accounted and no full scan
// happens.
func TestExpandUsesIndexNotScans(t *testing.T) {
	tab := datagen.StoreSales(7)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	s.Store().ResetStats()
	if err := s.Expand(s.Root().Children[0]); err != nil {
		t.Fatal(err)
	}
	st := s.Store().Stats()
	if st.IndexLookups == 0 {
		t.Fatalf("expansion did not use the index: %+v", st)
	}
	if st.FullScans != 0 {
		t.Fatalf("expansion fell back to full scans: %+v", st)
	}
	if st.IndexRowsRead == 0 || st.IndexRowsRead >= int64(tab.NumRows()) {
		t.Fatalf("index read %d posting entries; want >0 and < %d (a full pass)",
			st.IndexRowsRead, tab.NumRows())
	}
}
