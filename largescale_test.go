package smartdrill

// Million-row acceptance check for the approximate interactive pipeline
// (ISSUE 4): on a ≥1M-row synthetic Census table a cold drill-down must
// answer with provisional rules well inside the interactive budget while
// exact BRS takes seconds, and refinement must replace every provisional
// count with the exact one on the same session. Generating and searching
// a million rows exactly takes ~30s, so the test is gated:
//
//	make large            # or SMARTDRILL_LARGE=1 go test -run TestMillionRow .

import (
	"os"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/weight"
)

func TestMillionRowInteractiveLatency(t *testing.T) {
	if os.Getenv("SMARTDRILL_LARGE") == "" {
		t.Skip("set SMARTDRILL_LARGE=1 (or run `make large`) for the million-row acceptance check")
	}
	tab := datagen.CensusProjected(1000000, 7, 7)
	tab.Index().Warm()

	// Exact BRS at this scale blows the interactive budget.
	start := time.Now()
	if _, _, err := brs.Run(tab.All(), weight.NewSize(tab.NumCols()), brs.Options{K: 4, MaxWeight: 4}); err != nil {
		t.Fatal(err)
	}
	exactDur := time.Since(start)
	if exactDur < 2*time.Second {
		t.Fatalf("exact BRS took %s; the sampled pipeline's premise (exact > 2s at 1M rows) no longer holds — move this check to a bigger table", exactDur)
	}

	// A cold sampled session answers provisionally within the budget.
	e, err := New(tab,
		WithK(4), WithMaxWeight(4),
		WithSampling(50000, 5000),
		WithSampleThreshold(100000),
		WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	provDur := time.Since(start)
	if provDur > 250*time.Millisecond {
		t.Errorf("cold sampled drill-down took %s, want < 250ms (exact path: %s)", provDur, exactDur)
	}
	if len(e.Root().Children) == 0 {
		t.Fatal("sampled drill-down returned no rules")
	}
	for _, n := range e.Root().Children {
		if n.Exact {
			t.Fatalf("rule %v claims exactness straight off the sample", n.Rule)
		}
		if lo, hi := e.ConfidenceInterval(n); !(lo <= n.Count && n.Count <= hi) || lo == hi {
			t.Fatalf("rule %v: estimate %g outside its own CI [%g, %g]", n.Rule, n.Count, lo, hi)
		}
	}

	// Refinement replaces every provisional count with the authoritative
	// one without restarting the session.
	for _, n := range e.ProvisionalNodes() {
		if !e.RefineNode(n) {
			t.Fatalf("provisional node %v did not refine", n.Rule)
		}
	}
	for _, n := range e.Root().Children {
		if !n.Exact {
			t.Fatalf("rule %v still provisional after refinement", n.Rule)
		}
		if truth := float64(tab.Count(n.Rule)); n.Count != truth {
			t.Fatalf("rule %v: refined count %g != exact count %g", n.Rule, n.Count, truth)
		}
	}
	t.Logf("1M rows: provisional in %s, exact BRS %s (%.0fx), %d rules refined",
		provDur, exactDur, exactDur.Seconds()/provDur.Seconds(), len(e.Root().Children))
}
