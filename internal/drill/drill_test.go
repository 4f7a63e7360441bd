package drill

import (
	"math"
	"strings"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func TestSessionDefaults(t *testing.T) {
	tab := datagen.StoreSales(1)
	s, err := NewSession(tab, Config{})
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	if !root.Rule.IsTrivial() || root.Count != 6000 || !root.Exact {
		t.Fatalf("root = %+v", root)
	}
	if root.Expanded() {
		t.Fatal("fresh root must not be expanded")
	}
}

// TestReproducesPaperTables drives the exact interaction of the paper's
// Tables 1–3 and asserts the planted groups come back with their exact
// counts — the repository's headline end-to-end check.
func TestReproducesPaperTables(t *testing.T) {
	tab := datagen.StoreSales(42)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	kids := s.Root().Children
	if len(kids) != 3 {
		t.Fatalf("first expansion returned %d rules, want 3", len(kids))
	}
	wantTop := map[string]float64{
		"(Target, bicycles, ?)": 200,
		"(?, comforters, MA-3)": 600,
		"(Walmart, ?, ?)":       1000,
	}
	got := map[string]float64{}
	var walmart *Node
	for _, k := range kids {
		desc := "(" + strings.Join(tab.DecodeRule(k.Rule), ", ") + ")"
		got[desc] = k.Count
		if desc == "(Walmart, ?, ?)" {
			walmart = k
		}
	}
	for desc, want := range wantTop {
		if got[desc] != want {
			t.Fatalf("Table 2 mismatch: %s count %g, want %g (full: %v)", desc, got[desc], want, got)
		}
	}
	if walmart == nil {
		t.Fatal("Walmart rule missing")
	}

	if err := s.Expand(walmart); err != nil {
		t.Fatal(err)
	}
	wantSub := map[string]float64{
		"(Walmart, cookies, ?)": 200,
		"(Walmart, ?, CA-1)":    150,
		"(Walmart, ?, WA-5)":    130,
	}
	if len(walmart.Children) != 3 {
		t.Fatalf("Walmart expansion returned %d rules", len(walmart.Children))
	}
	for _, k := range walmart.Children {
		desc := "(" + strings.Join(tab.DecodeRule(k.Rule), ", ") + ")"
		if want, ok := wantSub[desc]; !ok || k.Count != want {
			t.Fatalf("Table 3 mismatch: %s count %g (want %v)", desc, k.Count, wantSub)
		}
	}
}

func TestStarExpansionConstraint(t *testing.T) {
	tab := datagen.StoreSales(7)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	region, err := tab.ColumnIndex("Region")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExpandStar(s.Root(), region); err != nil {
		t.Fatal(err)
	}
	for _, k := range s.Root().Children {
		if k.Rule[region] == rule.Star {
			t.Fatalf("star expansion returned %v with ? in Region", tab.DecodeRule(k.Rule))
		}
	}
}

func TestStarExpansionErrors(t *testing.T) {
	tab := datagen.StoreSales(7)
	s, _ := NewSession(tab, Config{K: 3})
	if err := s.ExpandStar(s.Root(), 99); err == nil {
		t.Error("out-of-range column must fail")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	// Find a child with an instantiated column and star-expand that column.
	child := s.Root().Children[0]
	col := child.Rule.InstantiatedColumns()[0]
	if err := s.ExpandStar(child, col); err == nil {
		t.Error("star expansion on instantiated column must fail")
	}
}

func TestCollapseAndReExpand(t *testing.T) {
	tab := datagen.StoreSales(7)
	s, _ := NewSession(tab, Config{K: 3})
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	first := append([]*Node{}, s.Root().Children...)
	s.Collapse(s.Root())
	if s.Root().Expanded() {
		t.Fatal("collapse failed")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if len(s.Root().Children) != len(first) {
		t.Fatal("re-expansion changed result size")
	}
	for i := range first {
		if !first[i].Rule.Equal(s.Root().Children[i].Rule) {
			t.Fatal("re-expansion is not deterministic")
		}
	}
}

func TestSampledSessionEstimates(t *testing.T) {
	tab := datagen.CensusProjected(30000, 5, 3)
	s, err := NewSession(tab, Config{
		K: 3, SampleMemory: 10000, MinSampleSize: 2000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Handler() == nil {
		t.Fatal("large table must enable the sample handler")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod != "Create" {
		t.Fatalf("first expansion method = %q, want Create", s.LastMethod)
	}
	// Estimated counts must be within a loose sampling tolerance of truth.
	for _, k := range s.Root().Children {
		actual := float64(tab.Count(k.Rule))
		if actual == 0 {
			t.Fatalf("displayed rule %v has zero true count", k.Rule)
		}
		if math.Abs(k.Count-actual)/actual > 0.15 {
			t.Fatalf("estimate %g vs actual %g (>15%%) for %v", k.Count, actual, k.Rule)
		}
	}
}

func TestSmallTableSkipsSampling(t *testing.T) {
	tab := datagen.StoreSales(7) // 6000 rows < MinSampleSize
	s, err := NewSession(tab, Config{K: 3, SampleMemory: 50000, MinSampleSize: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Handler() != nil {
		t.Fatal("table smaller than minSS must not use sampling")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod != "direct" {
		t.Fatalf("method = %q, want direct", s.LastMethod)
	}
}

func TestPrefetchServesNextDrill(t *testing.T) {
	tab := datagen.CensusProjected(40000, 5, 9)
	s, err := NewSession(tab, Config{
		K: 3, SampleMemory: 30000, MinSampleSize: 2000, Prefetch: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	scansAfterFirst := s.Store().Stats().FullScans
	// Drill into a child with free columns: prefetch must serve it from
	// memory (Find or Combine), not a new Create scan.
	var target *Node
	for _, k := range s.Root().Children {
		if k.Rule.Size() < tab.NumCols() {
			target = k
			break
		}
	}
	if target == nil {
		t.Skip("all children fully instantiated")
	}
	if err := s.Expand(target); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod == "Create" {
		t.Fatalf("prefetched drill still used Create (scans %d → %d)",
			scansAfterFirst, s.Store().Stats().FullScans)
	}
}

func TestRenderShapes(t *testing.T) {
	tab := datagen.StoreSales(7)
	s, _ := NewSession(tab, Config{K: 3})
	out := s.Render()
	if !strings.Contains(out, "Store") || !strings.Contains(out, "6000") {
		t.Fatalf("render missing header/count:\n%s", out)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	out = s.Render()
	if !strings.Contains(out, ". ") {
		t.Fatal("expanded render must indent children")
	}
	sub := s.RenderNode(s.Root().Children[0])
	if strings.Count(sub, "\n") < 3 {
		t.Fatalf("RenderNode too short:\n%s", sub)
	}
}

func TestEstimateMaxWeight(t *testing.T) {
	tab := datagen.StoreSales(7)
	w := weight.NewSize(tab.NumCols())
	mw := EstimateMaxWeight(tab.All(), w, 3, 1)
	// The optimal rules have weight ≤ 2; the estimate doubles the observed
	// max, so it must land in [2, 2·columns].
	if mw < 2 || mw > 6 {
		t.Fatalf("EstimateMaxWeight = %g", mw)
	}
}

func TestSumAggregateSession(t *testing.T) {
	tab := datagen.StoreSales(7)
	m, err := tab.MeasureIndex("Sales")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tab, Config{K: 3, Agg: score.SumAgg{Measure: m, Label: "Sales"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if len(s.Root().Children) == 0 {
		t.Fatal("no rules under Sum aggregate")
	}
	if !strings.Contains(s.Render(), "Sum(Sales)") {
		t.Fatal("render must show the Sum aggregate header")
	}
}

func TestBaseArityChecked(t *testing.T) {
	b := table.MustBuilder([]string{"A"}, nil)
	b.MustAddRow([]string{"x"})
	tab := b.Build()
	s, err := NewSession(tab, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	// Fully drilled: expanding a size-1 rule over a 1-column table yields
	// no children (nothing left to instantiate).
	child := s.Root().Children[0]
	if err := s.Expand(child); err != nil {
		t.Fatal(err)
	}
	if len(child.Children) != 0 {
		t.Fatalf("fully instantiated rule expanded into %d children", len(child.Children))
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
