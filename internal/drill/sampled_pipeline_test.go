package drill

// Tests for the approximate interactive pipeline: sampled-vs-exact
// convergence, threshold routing, and the provisional→exact refinement
// lifecycle.

import (
	"bytes"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
)

// topKeys returns the rule keys of a node's children.
func topKeys(n *Node) map[string]bool {
	out := make(map[string]bool, len(n.Children))
	for _, c := range n.Children {
		out[c.Rule.Key()] = true
	}
	return out
}

func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// TestSampledTopKConvergence: the sampled top-k converges to the exact
// top-k as the sample rate approaches 1 — small samples may disagree on
// tail rules, near-exhaustive samples must essentially reproduce the
// exact list.
func TestSampledTopKConvergence(t *testing.T) {
	tab := datagen.CensusProjected(30000, 7, 7)
	exact, err := NewSession(tab, Config{K: 4, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Expand(exact.Root()); err != nil {
		t.Fatal(err)
	}
	exactKeys := topKeys(exact.Root())
	if len(exactKeys) == 0 {
		t.Fatal("exact expansion returned no rules")
	}

	avgJaccard := func(minSS int) float64 {
		total := 0.0
		const seeds = 5
		for seed := int64(1); seed <= seeds; seed++ {
			s, err := NewSession(tab, Config{
				K: 4, MaxWeight: 4,
				SampleMemory:  tab.NumRows(),
				MinSampleSize: minSS,
				Seed:          seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Expand(s.Root()); err != nil {
				t.Fatal(err)
			}
			if s.LastMethod == "direct" {
				t.Fatalf("minSS=%d seed=%d: expansion was not sampled", minSS, seed)
			}
			total += jaccard(topKeys(s.Root()), exactKeys)
		}
		return total / seeds
	}

	small := avgJaccard(1500)
	large := avgJaccard(10000)
	nearFull := avgJaccard(29000) // rate ≈ 0.97

	if nearFull < 0.9 {
		t.Errorf("near-exhaustive sample: top-k Jaccard %.2f, want ≥ 0.9", nearFull)
	}
	if large < 0.6 {
		t.Errorf("minSS=10000: top-k Jaccard %.2f, want ≥ 0.6", large)
	}
	if small > nearFull+1e-9 && small == 1 {
		t.Errorf("convergence inverted: Jaccard %.2f at minSS=1500 vs %.2f near-full", small, nearFull)
	}
	t.Logf("top-k Jaccard vs exact: minSS=1500 %.2f, 10000 %.2f, 29000 %.2f", small, large, nearFull)
}

// TestSampleThresholdRouting: expansions route by (sub)view size — large
// views go to the sampled path with provisional counts, views provably
// smaller than the threshold are answered exactly.
func TestSampleThresholdRouting(t *testing.T) {
	tab := datagen.CensusProjected(30000, 7, 7)
	s, err := NewSession(tab, Config{
		K: 4, MaxWeight: 4,
		SampleMemory:    30000,
		MinSampleSize:   2000,
		SampleThreshold: 5000,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The root view (30000 rows) exceeds the threshold: sampled.
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod == "direct" {
		t.Fatal("root expansion should have sampled")
	}
	for _, c := range s.Root().Children {
		if c.Exact {
			t.Fatalf("sampled child %v claims exactness", c.Rule)
		}
		if c.CILow > c.Count || c.CIHigh < c.Count {
			t.Fatalf("child %v: count %g outside CI [%g, %g]", c.Rule, c.Count, c.CILow, c.CIHigh)
		}
		// The clamped upper bound never exceeds the enclosing view's size.
		if c.CIHigh > float64(tab.NumRows()) {
			t.Fatalf("child %v: CI hi %g exceeds table size", c.Rule, c.CIHigh)
		}
	}

	// A rule provably below the threshold is answered exactly despite the
	// handler being live.
	small := findSmallRule(t, tab, 5000)
	n := &Node{Rule: small}
	if err := s.Expand(n); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod != "direct" {
		t.Fatalf("small view answered via %q, want direct", s.LastMethod)
	}
	for _, c := range n.Children {
		if !c.Exact {
			t.Fatalf("exact-path child %v marked provisional", c.Rule)
		}
	}
}

// findSmallRule returns a single-column rule whose coverage is below max.
func findSmallRule(t *testing.T, tab *table.Table, max int) rule.Rule {
	t.Helper()
	for c := 0; c < tab.NumCols(); c++ {
		for v := 0; v < tab.DistinctCount(c); v++ {
			r := rule.Trivial(tab.NumCols()).With(c, rule.Value(v))
			if n := tab.Count(r); n > 0 && n < max {
				return r
			}
		}
	}
	t.Fatal("no small rule in table")
	return nil
}

// TestSampleMemoryClampedToRows: a sample budget beyond the table's rows is
// the table's rows — the budget is row ids of this table, and the prefetch
// allocator's tables grow with it, so an unclamped 1<<60 could not even be
// allocated by the prefetch after the drill — and a budget within them holds.
func TestSampleMemoryClampedToRows(t *testing.T) {
	tab := datagen.CensusProjected(10000, 7, 7)
	for _, tc := range []struct{ memory, want int }{
		{1 << 60, 10000},
		{2000000000, 10000},
		{10001, 10000},
		{4000, 4000},
	} {
		s, err := NewSession(tab, Config{K: 3, SampleMemory: tc.memory, MinSampleSize: 1000, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatalf("sample_memory %d: %v", tc.memory, err)
		}
		if len(s.Root().Children) == 0 || s.Handler().MemoryUsed() > tc.want {
			t.Fatalf("sample_memory %d: %d rules, %d rows resident", tc.memory, len(s.Root().Children), s.Handler().MemoryUsed())
		}
	}
}

// TestRefineNodeLifecycle: provisional nodes refine to the authoritative
// count, become exact, and refuse double work. Under Count a refine reads the
// table's distinct tuples, each once: the one accounted pass over the table
// that builds them was the first sampled drill's, whose sample is drawn from
// them in a walk over them.
func TestRefineNodeLifecycle(t *testing.T) {
	tab := datagen.CensusProjected(25000, 7, 7)
	s, err := NewSession(tab, Config{
		K: 4, MaxWeight: 4,
		SampleMemory:  25000,
		MinSampleSize: 2000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	prov := s.ProvisionalNodes()
	if len(prov) == 0 {
		t.Fatal("sampled expansion produced no provisional nodes")
	}
	d, _ := tab.Distinct()
	if d == nil {
		t.Fatal("census does not compress")
	}
	before := s.Store().Stats()
	if want := int64(tab.NumRows() + d.NumRows()); before.FullScans != 1 || before.RowsRead != want {
		t.Fatalf("the sampled root drill charged %d full scans and %d rows, want 1 (the build) and %d (it, and one walk of %d distinct tuples)",
			before.FullScans, before.RowsRead, want, d.NumRows())
	}
	for _, n := range prov {
		if !s.RefineNode(n) {
			t.Fatalf("node %v did not refine", n.Rule)
		}
		truth := float64(tab.Count(n.Rule))
		if n.Count != truth {
			t.Fatalf("node %v: refined count %g != exact %g", n.Rule, n.Count, truth)
		}
		if !n.Exact || n.CILow != truth || n.CIHigh != truth {
			t.Fatalf("node %v: lifecycle state wrong after refine: %+v", n.Rule, n)
		}
		if s.RefineNode(n) {
			t.Fatalf("node %v refined twice", n.Rule)
		}
	}
	after := s.Store().Stats()
	wantRows := int64(len(prov) * d.NumRows())
	if scans, rows := after.FullScans-before.FullScans, after.RowsRead-before.RowsRead; scans != 0 || rows != wantRows {
		t.Fatalf("refinement charged %d full scans and %d rows, want none and %d (%d distinct tuples per node)",
			scans, rows, wantRows, d.NumRows())
	}
	if len(s.ProvisionalNodes()) != 0 {
		t.Fatal("provisional nodes remain after refining all")
	}
}

// TestRefineAndTraditionalInTotals: a refine and a traditional listing add
// the passes they read to the session's totals (TotalStats, which
// Engine.TotalSearchStats reports) and leave LastStats, the last
// expansion's, alone. The session is fresh: it resumes another session's
// provisional tree over a table nothing has read yet, so its first refine
// builds the distinct tuples — one pass over the rows — before it reads
// them; the second reads only the tuples; a listing reads the rows once.
func TestRefineAndTraditionalInTotals(t *testing.T) {
	cfg := Config{K: 4, MaxWeight: 4, SampleMemory: 25000, MinSampleSize: 2000, Seed: 3}
	donorTab := datagen.CensusProjected(25000, 7, 7)
	donor, err := NewSession(donorTab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Expand(donor.Root()); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.Save(&snap); err != nil {
		t.Fatal(err)
	}
	tab := datagen.CensusProjected(25000, 7, 7)
	s, err := NewSession(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&snap); err != nil {
		t.Fatal(err)
	}
	prov := s.ProvisionalNodes()
	if len(prov) < 2 {
		t.Fatalf("resumed tree has %d provisional nodes, want 2", len(prov))
	}
	last := s.LastStats
	// The donor's table holds the same tuples and has built them already.
	d, _ := donorTab.Distinct()
	if d == nil {
		t.Fatal("census does not compress")
	}
	rows, tuples := int64(tab.NumRows()), int64(d.NumRows())
	booked := func(label string, do func(), passes int, read int64) {
		t.Helper()
		before := s.TotalStats
		do()
		if p, r := s.TotalStats.Passes-before.Passes, s.TotalStats.RowsScanned-before.RowsScanned; p != passes || r != read {
			t.Fatalf("%s added %d passes and %d rows to the totals, want %d and %d", label, p, r, passes, read)
		}
		if s.LastStats != last {
			t.Fatalf("%s overwrote LastStats: %+v", label, s.LastStats)
		}
	}
	booked("the first refine", func() { s.RefineNode(prov[0]) }, 2, rows+tuples)
	booked("the second refine", func() { s.RefineNode(prov[1]) }, 1, tuples)
	booked("a traditional listing", func() {
		if _, err := s.Traditional(s.Root(), 0); err != nil {
			t.Fatal(err)
		}
	}, 1, rows)
}

// TestRefineSkipsOrphanedNodes: a background refiner can lose the race
// with a collapse, a re-expansion or a Load; refining the orphaned node must
// be a no-op, not a wasted full pass — also where the loaded snapshot
// displays a node under the orphan's id.
func TestRefineSkipsOrphanedNodes(t *testing.T) {
	tab := datagen.CensusProjected(25000, 7, 7)
	s, err := NewSession(tab, Config{
		K: 4, MaxWeight: 4,
		SampleMemory:  25000,
		MinSampleSize: 2000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	orphan := s.Root().Children[0]
	s.Collapse(s.Root())
	scans := s.Store().Stats().FullScans
	if s.RefineNode(orphan) {
		t.Fatal("refined a node no longer in the displayed tree")
	}
	if got := s.Store().Stats().FullScans; got != scans {
		t.Fatalf("orphan refinement paid %d passes", got-scans)
	}
	if orphan.Exact {
		t.Fatal("orphan mutated")
	}

	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	held := s.Root().Children[0]
	if held.Exact {
		t.Fatal("fixture: the re-expanded child is exact; there is nothing to refine")
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if n := s.NodeByID(held.ID()); n == nil || n == held {
		t.Fatalf("after Load id %d resolves to %p, want the restored node, not the held %p", held.ID(), n, held)
	}
	scans = s.Store().Stats().FullScans
	if s.RefineNode(held) {
		t.Fatal("refined a node held from before Load")
	}
	if got := s.Store().Stats().FullScans; got != scans {
		t.Fatalf("refining a node held from before Load paid %d passes", got-scans)
	}
	if held.Exact {
		t.Fatal("node held from before Load mutated")
	}
}

// TestRefineNodeSumAggregate: refinement under Sum replaces the scaled
// estimate with the exact mass (an aggregate scan, not a tuple count —
// the distinction the PR-2 display bugfix guards).
func TestRefineNodeSumAggregate(t *testing.T) {
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
	prov := s.ProvisionalNodes()
	if len(prov) == 0 {
		t.Fatal("no provisional nodes under Sum sampling")
	}
	for _, n := range prov {
		if !s.RefineNode(n) {
			t.Fatalf("node %v did not refine", n.Rule)
		}
		truth := 0.0
		for i := 0; i < tab.NumRows(); i++ {
			if tab.Covers(n.Rule, i) {
				truth += agg.Mass(tab, i)
			}
		}
		if n.Count != truth {
			t.Fatalf("node %v: refined sum %g != exact %g", n.Rule, n.Count, truth)
		}
		if !n.Exact {
			t.Fatalf("node %v not exact after refine", n.Rule)
		}
	}
}

// TestSampledSessionAccounting: sampled searches report their in-memory
// sample reads through the session totals.
func TestSampledSessionAccounting(t *testing.T) {
	tab := datagen.CensusProjected(25000, 7, 7)
	s, err := NewSession(tab, Config{
		K: 4, MaxWeight: 4,
		SampleMemory:  25000,
		MinSampleSize: 2000,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastStats.SampledRowsScanned == 0 {
		t.Fatal("sampled expansion recorded no sampled rows")
	}
	if s.TotalStats.SampledRowsScanned != s.LastStats.SampledRowsScanned {
		t.Fatalf("session totals %d != last stats %d",
			s.TotalStats.SampledRowsScanned, s.LastStats.SampledRowsScanned)
	}
}
