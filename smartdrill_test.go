package smartdrill

import (
	"errors"
	"strings"
	"testing"

	"smartdrill/internal/datagen"
)

func storeEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := New(datagen.StoreSales(42), append([]Option{WithK(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEndToEndQuickstart(t *testing.T) {
	e := storeEngine(t)
	if e.Root().Count != 6000 {
		t.Fatalf("root count = %g", e.Root().Count)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	if len(e.Root().Children) != 3 {
		t.Fatalf("children = %d", len(e.Root().Children))
	}
	out := e.Render()
	for _, want := range []string{"Walmart", "comforters", "bicycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if e.LastAccessMethod() != "direct" {
		t.Fatalf("access = %q", e.LastAccessMethod())
	}
}

func TestDrillDownStarByName(t *testing.T) {
	e := storeEngine(t)
	if err := e.DrillDownStar(e.Root(), "Region"); err != nil {
		t.Fatal(err)
	}
	for _, c := range e.Root().Children {
		cells := e.Table().DecodeRule(c.Rule)
		if cells[2] == "?" {
			t.Fatalf("star drill returned %v", cells)
		}
	}
	if err := e.DrillDownStar(e.Root(), "Nope"); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestFindNodeAndEncodeRule(t *testing.T) {
	e := storeEngine(t)
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	r, err := e.EncodeRule(map[string]string{"Store": "Walmart"})
	if err != nil {
		t.Fatal(err)
	}
	n := e.FindNode(r)
	if n == nil {
		t.Fatal("Walmart node not found")
	}
	if got := e.DescribeRule(n); got != "(Walmart, ?, ?)" {
		t.Fatalf("DescribeRule = %q", got)
	}
	if e.FindNode(r.With(1, 0).With(2, 0)) != nil {
		t.Fatal("absent rule should not be found")
	}
}

func TestCollapse(t *testing.T) {
	e := storeEngine(t)
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	e.Collapse(e.Root())
	if len(e.Root().Children) != 0 {
		t.Fatal("collapse failed")
	}
}

func TestWithSum(t *testing.T) {
	tab := datagen.StoreSales(42)
	opt, err := WithSum(tab, "Sales")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, WithK(3), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Render(), "Sum(Sales)") {
		t.Fatal("render must show Sum aggregate")
	}
	if _, err := WithSum(tab, "Nope"); err == nil {
		t.Fatal("unknown measure must fail")
	}
}

func TestWeighterOptions(t *testing.T) {
	tab := datagen.StoreSales(42)
	for _, w := range []Weighter{SizeWeight(tab), BitsWeight(tab), SizeMinusOneWeight(),
		LinearWeight([]float64{1, 2, 3}, 1, "custom")} {
		if err := Validate(w, tab); err != nil {
			t.Fatalf("weighter %v rejected: %v", w, err)
		}
		e, err := New(tab, WithK(2), WithWeighter(w), WithMaxWeight(6))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.DrillDown(e.Root()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSamplingOptions(t *testing.T) {
	tab := datagen.CensusProjected(30000, 5, 4)
	e, err := New(tab, WithK(3), WithSampling(10000, 2000), WithPrefetch(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	if e.LastAccessMethod() != "Create" {
		t.Fatalf("first access = %q", e.LastAccessMethod())
	}
	if len(e.Root().Children) == 0 {
		t.Fatal("no rules returned")
	}
}

func TestTraditionalDrillDownAPI(t *testing.T) {
	e := storeEngine(t)
	groups, err := e.TraditionalDrillDown(e.Root(), "Store")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 || groups[0].Value != "Walmart" || groups[0].Count != 1000 {
		t.Fatalf("top group = %+v", groups[0])
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Count > groups[i-1].Count {
			t.Fatal("groups not ordered")
		}
	}
	if _, err := e.TraditionalDrillDown(e.Root(), "Nope"); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestReadCSVPublic(t *testing.T) {
	csv := "Store,Sales\nWalmart,5\nTarget,7\n"
	tab, err := ReadCSV(strings.NewReader(csv), []string{"Sales"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	if len(e.Root().Children) != 2 {
		t.Fatalf("children = %d", len(e.Root().Children))
	}
}

func TestNewTableBuilderPublic(t *testing.T) {
	b, err := NewTableBuilder([]string{"A"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow([]string{"x"}, nil); err != nil {
		t.Fatal(err)
	}
	tab := b.Build()
	if tab.NumRows() != 1 {
		t.Fatal("builder row lost")
	}
}

func TestRenderNodeSubtree(t *testing.T) {
	e := storeEngine(t)
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	child := e.Root().Children[2]
	if err := e.DrillDown(child); err != nil {
		t.Fatal(err)
	}
	sub := e.RenderNode(child)
	if strings.Contains(sub, "bicycles") && !strings.Contains(e.DescribeRule(child), "bicycles") {
		t.Fatalf("RenderNode leaked sibling rows:\n%s", sub)
	}
}

// TestConfidenceIntervalSentinel pins the HasCI contract: a provisional
// node whose genuine 95% bound is [0, 0] reports that interval instead of
// being misread as exact, while estimates without interval support (and
// exact nodes) collapse to the displayed value.
func TestConfidenceIntervalSentinel(t *testing.T) {
	e := storeEngine(t)
	genuine := &Node{Count: 0, Exact: false, HasCI: true, CILow: 0, CIHigh: 0}
	if lo, hi := e.ConfidenceInterval(genuine); lo != 0 || hi != 0 {
		t.Fatalf("genuine [0,0] interval: got [%g,%g]", lo, hi)
	}
	// The same bounds WITHOUT the flag (a Sum estimate, say) must fall
	// back to the displayed value, not claim a zero interval.
	sumEst := &Node{Count: 123, Exact: false, HasCI: false, CILow: 0, CIHigh: 0}
	if lo, hi := e.ConfidenceInterval(sumEst); lo != 123 || hi != 123 {
		t.Fatalf("no-interval estimate: got [%g,%g], want [123,123]", lo, hi)
	}
	exact := &Node{Count: 7, Exact: true, HasCI: true, CILow: 1, CIHigh: 9}
	if lo, hi := e.ConfidenceInterval(exact); lo != 7 || hi != 7 {
		t.Fatalf("exact node: got [%g,%g], want [7,7]", lo, hi)
	}
}

// TestNodeIDSurface covers the engine's stable-ID wire helpers.
func TestNodeIDSurface(t *testing.T) {
	e := storeEngine(t)
	if got := e.NodeID(e.Root()); got != "n1" {
		t.Fatalf("root NodeID = %q, want n1", got)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	child := e.Root().Children[0]
	id := e.NodeID(child)
	back, err := e.NodeByID(id)
	if err != nil || back != child {
		t.Fatalf("NodeByID(%q) = %v, %v", id, back, err)
	}
	if _, err := e.NodeByID("banana"); err == nil {
		t.Fatal("malformed ID accepted")
	}
	e.Collapse(e.Root())
	if _, err := e.NodeByID(id); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("collapsed node ID: err %v, want ErrUnknownNode", err)
	}
}
