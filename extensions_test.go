package smartdrill

// Tests for the Section 6 extensions exposed through the public API:
// anytime streaming drill-down, confidence intervals, automatic numeric
// bucketization, column preferences, session persistence, and parallelism.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"smartdrill/internal/brs/brsref"
	"smartdrill/internal/datagen"
)

func TestDrillDownStream(t *testing.T) {
	tab := datagen.StoreSales(42)
	e, err := New(tab, WithMaxWeight(3))
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	err = e.DrillDownStream(e.Root(), 0, 0, func(n *Node) bool {
		seen = append(seen, e.DescribeRule(n))
		return len(seen) < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("streamed %d rules, want 2 (stopped by callback)", len(seen))
	}
	if len(e.Root().Children) != 2 {
		t.Fatalf("tree has %d children, want 2", len(e.Root().Children))
	}
	// The greedy stream starts with the highest-score rule: comforters/MA-3.
	if seen[0] != "(?, comforters, MA-3)" {
		t.Fatalf("first streamed rule = %s", seen[0])
	}
}

func TestDrillDownStreamMaxRules(t *testing.T) {
	tab := datagen.StoreSales(42)
	e, _ := New(tab, WithMaxWeight(3))
	if err := e.DrillDownStream(e.Root(), 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Root().Children) != 3 {
		t.Fatalf("children = %d, want 3", len(e.Root().Children))
	}
}

func TestDrillDownStreamBudget(t *testing.T) {
	tab := datagen.StoreSales(42)
	e, _ := New(tab, WithMaxWeight(3))
	// A negative... zero means unbounded; use 1ns so the deadline passes
	// before the first greedy step completes and at most one rule appears.
	if err := e.DrillDownStream(e.Root(), 0, time.Nanosecond, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Root().Children); got > 1 {
		t.Fatalf("children = %d under 1ns budget", got)
	}
}

// TestConfidenceIntervals: every estimate lies inside its own interval, an
// exact node's interval is its count, and over many seeds the 95 % intervals
// cover the true counts at a rate no lower than covFloor. One seed's three
// intervals prove nothing — any one of them may miss — so the rate is taken
// over every sampled child of every seed's root drill.
func TestConfidenceIntervals(t *testing.T) {
	const seeds, minIntervals, covFloor = 40, 60, 0.85
	tab := datagen.CensusProjected(30000, 5, 4)
	intervals, covered := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		e, err := New(tab, WithK(3), WithSampling(10000, 2000), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.DrillDown(e.Root()); err != nil {
			t.Fatal(err)
		}
		for _, n := range e.Root().Children {
			lo, hi := e.ConfidenceInterval(n)
			if n.Exact {
				if lo != n.Count || hi != n.Count {
					t.Fatalf("seed %d: exact node interval [%g,%g] != count %g", seed, lo, hi, n.Count)
				}
				continue
			}
			if lo > n.Count || hi < n.Count {
				t.Fatalf("seed %d: estimate %g outside its own interval [%g,%g]", seed, n.Count, lo, hi)
			}
			intervals++
			if actual := float64(tab.Count(n.Rule)); lo <= actual && actual <= hi {
				covered++
			}
		}
	}
	rate := float64(covered) / float64(intervals)
	t.Logf("%d of %d intervals over %d seeds cover the true count (%.3f)", covered, intervals, seeds, rate)
	if intervals < minIntervals || rate < covFloor {
		t.Fatalf("%d of %d intervals cover the true count (%.3f); want at least %d intervals and a rate of %.2f",
			covered, intervals, rate, minIntervals, covFloor)
	}
}

func TestLoadCSVAutoEndToEnd(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("City,Revenue\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "c%d,%d\n", i%5, 100+i*7)
	}
	tab, numeric, err := ReadCSVAuto(strings.NewReader(sb.String()), AutoOptions{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(numeric) != 1 || numeric[0] != "Revenue" {
		t.Fatalf("numeric = %v", numeric)
	}
	// The bucketized table drills down normally and can Sum the measure.
	sumOpt, err := WithSum(tab, "Revenue")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, WithK(3), sumOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	if len(e.Root().Children) == 0 {
		t.Fatal("no rules over bucketized data")
	}
	if !strings.Contains(e.Render(), "Revenue_bucket") {
		t.Fatal("render must show the bucket column")
	}
}

func TestWithPreferencesEndToEnd(t *testing.T) {
	tab := datagen.StoreSales(42)
	w, err := WithPreferences(tab, SizeWeight(tab), []string{"Region"}, []string{"Store"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(w, tab); err != nil {
		t.Fatal(err)
	}
	e, err := New(tab, WithK(3), WithWeighter(w), WithMaxWeight(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	// With Store ignored and Region favored, the Walmart rule (store-only)
	// has weight 0 and cannot appear; region rules dominate.
	for _, n := range e.Root().Children {
		if n.Weight <= 0 {
			t.Fatalf("zero-weight rule displayed: %s", e.DescribeRule(n))
		}
		cells := tab.DecodeRule(n.Rule)
		if cells[2] == "?" {
			t.Fatalf("favored Region not instantiated in %s", e.DescribeRule(n))
		}
	}
	if _, err := WithPreferences(tab, SizeWeight(tab), []string{"Nope"}, nil, 1); err == nil {
		t.Fatal("unknown favored column must fail")
	}
	if _, err := WithPreferences(tab, SizeWeight(tab), nil, []string{"Nope"}, 1); err == nil {
		t.Fatal("unknown ignored column must fail")
	}
}

func TestSaveLoadStatePublic(t *testing.T) {
	tab := datagen.StoreSales(42)
	e, _ := New(tab, WithK(3))
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	e2, _ := New(tab, WithK(3))
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if e.Render() != e2.Render() {
		t.Fatal("state round trip changed the rendered tree")
	}
}

// TestWithWorkersMatchesSerial: an engine at eight workers shows, two levels
// deep, what brsref — the paper's Algorithms 1–2 as written, one serial pass
// at a time — finds on the rows each drilled rule covers: the same rules in
// the same order, with the same weights and counts. StoreSales holds fewer
// tuples than the mw probe's floor, so each search runs at the weighter's
// bound.
func TestWithWorkersMatchesSerial(t *testing.T) {
	tab := datagen.StoreSales(42)
	parallel, _ := New(tab, WithK(3), WithWorkers(8))
	w := SizeWeight(tab)
	drill := func(n *Node) {
		t.Helper()
		if err := parallel.DrillDown(n); err != nil {
			t.Fatal(err)
		}
		rows := tab.Select(tab.FilterIndicesScan(n.Rule)).All()
		want, _ := brsref.Run(rows, w, brsref.Options{K: 3, Base: n.Rule})
		if len(n.Children) != len(want) {
			t.Fatalf("under %v: %d rules at eight workers, the oracle finds %d", n.Rule, len(n.Children), len(want))
		}
		for i, r := range want {
			if c := n.Children[i]; !c.Rule.Equal(r.Rule) || c.Weight != r.Weight || c.Count != r.Count || !c.Exact {
				t.Fatalf("under %v: rule %d is %v (%v, %v, exact %v), the oracle's %v (%v, %v)",
					n.Rule, i, c.Rule, c.Weight, c.Count, c.Exact, r.Rule, r.Weight, r.Count)
			}
		}
	}
	drill(parallel.Root())
	for _, c := range parallel.Root().Children {
		drill(c)
	}
}
