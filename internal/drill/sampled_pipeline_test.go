package drill

// Tests for the approximate interactive pipeline: sampled-vs-exact
// convergence, threshold routing, and the provisional→exact refinement
// lifecycle.

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"smartdrill/internal/baseline"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
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
// count, become exact, and refuse double work. A refine reads what an exact
// drill of its rule searches: under Count the distinct tuples the rule
// covers, found by one index lookup, and no pass over the table or over
// all of its tuples — the one accounted pass over the table that builds
// the tuples was the first sampled drill's, whose sample is drawn from them
// in a walk over them. (Refines used to re-count through the search service
// in a pass over every distinct tuple; the rule's view gives the same
// integer for its covered tuples alone.)
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
	before, totals := s.Store().Stats(), s.TotalStats
	if want := int64(tab.NumRows() + d.NumRows()); before.FullScans != 1 || before.RowsRead != want {
		t.Fatalf("the sampled root drill charged %d full scans and %d rows, want 1 (the build) and %d (it, and one walk of %d distinct tuples)",
			before.FullScans, before.RowsRead, want, d.NumRows())
	}
	var lookups, tuples int64
	for _, n := range prov {
		covered, read := d.Index().Lookup(n.Rule)
		lookups += read
		tuples += int64(len(covered))
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
	want := storage.Stats{IndexLookups: int64(len(prov)), IndexRowsRead: lookups}
	if got := (storage.Stats{FullScans: after.FullScans - before.FullScans, RowsRead: after.RowsRead - before.RowsRead,
		IndexLookups: after.IndexLookups - before.IndexLookups, IndexRowsRead: after.IndexRowsRead - before.IndexRowsRead}); got != want {
		t.Fatalf("refinement charged the store %+v, want %+v (one lookup a node in the distinct tuples' index)", got, want)
	}
	if p, r := s.TotalStats.Passes-totals.Passes, s.TotalStats.RowsScanned-totals.RowsScanned; p != len(prov) || r != tuples {
		t.Fatalf("refinement added %d passes and %d rows to the totals, want %d and the %d distinct tuples the nodes cover", p, r, len(prov), tuples)
	}
	if len(s.ProvisionalNodes()) != 0 {
		t.Fatal("provisional nodes remain after refining all")
	}
}

// TestRefineAndTraditionalInTotals: a refine and a traditional listing add
// what they read to the session's totals (TotalStats, which
// Engine.TotalSearchStats reports) and leave LastStats, the last
// expansion's, alone. The session is fresh: it resumes another session's
// provisional tree over a table nothing has read yet, so its first refine
// builds the distinct tuples — one pass over the rows — before it reads
// the tuples its rule covers; the second reads only its own covered tuples;
// a listing under the root reads every tuple once. (Each refine used to
// read every distinct tuple, and a listing every row, through the search
// service; now each reads its rule's exact view.) The build is booked to
// the totals by the refine that caused it, so the next drill's LastStats
// does not carry it: that drill books what the same drill books in a twin
// session whose table had built its tuples before.
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
	resume := func(tab *table.Table) *Session {
		t.Helper()
		s, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		return s
	}
	tab := datagen.CensusProjected(25000, 7, 7)
	s, twin := resume(tab), resume(donorTab)
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
	covered := func(n *Node) int64 {
		rows, _ := d.Index().Lookup(n.Rule)
		return int64(len(rows))
	}
	booked := func(label string, do func(*Session), passes int, read int64) {
		t.Helper()
		before := s.TotalStats
		do(s)
		if p, r := s.TotalStats.Passes-before.Passes, s.TotalStats.RowsScanned-before.RowsScanned; p != passes || r != read {
			t.Fatalf("%s added %d passes and %d rows to the totals, want %d and %d", label, p, r, passes, read)
		}
		if s.LastStats != last {
			t.Fatalf("%s overwrote LastStats: %+v", label, s.LastStats)
		}
		do(twin)
	}
	refine := func(i int) func(*Session) {
		return func(s *Session) { s.RefineNode(s.NodeByID(prov[i].ID())) }
	}
	booked("the first refine", refine(0), 2, int64(tab.NumRows())+covered(prov[0]))
	booked("the second refine", refine(1), 1, covered(prov[1]))
	booked("a traditional listing", func(s *Session) {
		if _, err := s.Traditional(s.Root(), 0); err != nil {
			t.Fatal(err)
		}
	}, 1, int64(d.NumRows()))
	for _, s := range []*Session{s, twin} {
		if err := s.Expand(s.NodeByID(prov[0].ID())); err != nil {
			t.Fatal(err)
		}
	}
	if s.LastStats != twin.LastStats {
		t.Fatalf("the drill after the building refine booked %+v, its twin %+v", s.LastStats, twin.LastStats)
	}
}

// TestRefineSkipsOrphanedNodes: a background refiner can lose the race
// with a collapse, a re-expansion or a Load; refining the orphaned node must
// be a no-op that reads nothing — also where the loaded snapshot
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
	io := s.Store().Stats()
	if s.RefineNode(orphan) {
		t.Fatal("refined a node no longer in the displayed tree")
	}
	if got := s.Store().Stats(); got != io {
		t.Fatalf("orphan refinement read %+v, after %+v", got, io)
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
	io = s.Store().Stats()
	if s.RefineNode(held) {
		t.Fatal("refined a node held from before Load")
	}
	if got := s.Store().Stats(); got != io {
		t.Fatalf("refining a node held from before Load read %+v, after %+v", got, io)
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

// TestEquivalenceRefineAndListingOverExactView: a refine and a traditional
// listing read a rule's exact view — under Count the distinct tuples that
// hold its rows, under Sum its rows in row order — and for every rule of a
// small random table, on an exact session and a sampled one, each returns
// what the rows do: the refined count is the rule's rows summed in row
// order, bit for bit, and the listing on every column is the baseline's
// over the whole table.
func TestEquivalenceRefineAndListingOverExactView(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := []int{3, 2, 4}
	b := table.MustBuilder([]string{"A", "B", "C"}, []string{"M"})
	for i := 0; i < 600; i++ {
		row := make([]string, len(vals))
		for c, n := range vals {
			row[c] = strconv.Itoa(rng.Intn(n))
		}
		b.MustAddRow(row, rng.Float64()*100-10) // some negative: a Sum counts them as zero
	}
	tab := b.Build()
	if d, _ := tab.Distinct(); d == nil {
		t.Fatal("the table does not compress: Count would not read distinct tuples")
	}
	var rules []rule.Rule
	var extend func(r rule.Rule, c int)
	extend = func(r rule.Rule, c int) {
		if c == len(vals) {
			rules = append(rules, append(rule.Rule(nil), r...))
			return
		}
		for v := rule.Star; int(v) < vals[c]; v++ {
			r[c] = v
			extend(r, c+1)
		}
	}
	extend(rule.Trivial(len(vals)), 0)
	if want := 4 * 3 * 5; len(rules) != want {
		t.Fatalf("%d rules enumerated, want %d", len(rules), want)
	}

	for _, agg := range []score.Aggregator{score.CountAgg{}, score.SumAgg{Measure: 0}} {
		for _, cfg := range []Config{{}, {SampleMemory: 300, MinSampleSize: 100}} {
			cfg.Agg = agg
			s, err := NewSession(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (s.Handler() != nil) != (cfg.SampleMemory > 0) {
				t.Fatalf("%s: the session samples: %v", agg.Name(), s.Handler() != nil)
			}
			for _, r := range rules {
				want := 0.0
				for i := 0; i < tab.NumRows(); i++ {
					if tab.Covers(r, i) {
						want += agg.Mass(tab, i)
					}
				}
				n := &Node{Rule: r}
				s.adopt(n) // displayed and provisional: what a sampled drill shows
				if !s.RefineNode(n) || n.Count != want {
					t.Fatalf("%s, sampled %v: refine of %v gives %v, the rows %v", agg.Name(), s.Handler() != nil, r, n.Count, want)
				}
				for c := range vals {
					got, err := s.Traditional(n, c)
					if err != nil {
						t.Fatal(err)
					}
					want, err := baseline.TraditionalDrillDown(tab.All(), r, c, agg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, sampled %v: listing of %v on column %d is\n%v\nthe rows give\n%v", agg.Name(), s.Handler() != nil, r, c, got, want)
					}
				}
			}
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
