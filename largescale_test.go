package smartdrill

// Million-row acceptance check for the approximate interactive pipeline
// (ISSUE 4): on a ≥1M-row synthetic Census table a cold drill-down must
// answer with provisional rules well inside the interactive budget and
// several times sooner than exact BRS on the same box, and refinement must
// replace every provisional count with the exact one on the same session.
// "Exact BRS" there means the search over the table's rows, which is what a
// table that does not compress costs. This one does — a million census rows
// over seven columns are some fifteen thousand distinct tuples — and an
// exact Count drill through the engine searches those (docs/ARCHITECTURE.md,
// "The distinct-tuple table"). The sampled session draws its samples from
// them too (docs/ARCHITECTURE.md, "A sample is drawn from the tuples"): a
// Create walks the fifteen thousand distinct tuples, not the million rows, and
// hands the search a table of the sample's own distinct tuples (some 1 300
// for its 5 000 rows at the root, one or two hundred under a child). The
// sampled root drill is about 12 ms where the pass over the rows made it 35,
// a Create below it a millisecond or two where it was over twenty; a later
// exact root drill at this configured mw is about 16–20 ms, unprobed. The
// test logs them, with each Create's count and its rows and distinct tuples
// drawn, and asserts nothing about their order — only that no part of the
// sampled session, its refinement included, passes over the table's rows.
// Sampling still earns its keep where it reads far less than the exact path
// would: on tables whose rows do not repeat, and for Sum, both of which draw
// rows as before.
// The engine's exact and sampled Count drills must leave the index over the
// rows unbuilt; the table and that index, warmed, must fit in 16 MiB (they
// were 57). The same table then goes out through WriteCSV and back in
// through the ingest pipeline, which must reproduce it cell for cell. Generating and
// searching a million rows exactly takes several seconds, so the test is
// gated:
//
//	make large            # or SMARTDRILL_LARGE=1 go test -run TestMillionRow .

import (
	"bytes"
	"context"
	"os"
	"slices"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/spans"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

func TestMillionRowInteractiveLatency(t *testing.T) {
	if os.Getenv("SMARTDRILL_LARGE") == "" {
		t.Skip("set SMARTDRILL_LARGE=1 (or run `make large`) for the million-row acceptance check")
	}
	tab := datagen.CensusProjected(1000000, 7, 7)

	// An exact answer through the engine, which reads the distinct tuples:
	// the first drill builds them, the second is what every later exact
	// drill on the dataset costs.
	var engineDur [2]time.Duration
	for i := range engineDur {
		exact, err := New(tab, WithK(4), WithMaxWeight(4), WithCacheDisabled())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := exact.DrillDown(exact.Root()); err != nil {
			t.Fatal(err)
		}
		engineDur[i] = time.Since(start)
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
	start := time.Now()
	if err := e.DrillDown(e.Root()); err != nil {
		t.Fatal(err)
	}
	provDur := time.Since(start)

	// Neither read the rows, so neither built their index's containers.
	if _, index := tab.ResidentBytes(); index != 0 {
		t.Errorf("exact and sampled Count drills built the rows' index (%d bytes)", index)
	}

	// What the million rows cost to keep: a byte a cell (no column here has
	// more than 256 values) and, once a search over the rows has built it,
	// one index container a value.
	tab.Index().Warm()
	cells, index := tab.ResidentBytes()
	t.Logf("1M rows: cells %.1f MiB, index %.1f MiB resident", float64(cells)/(1<<20), float64(index)/(1<<20))
	if cells+index > 16<<20 {
		t.Errorf("table and index hold %d + %d bytes, want at most 16 MiB together", cells, index)
	}

	// Exact BRS over the rows at this scale is the baseline the sampled
	// answer is measured against below.
	start = time.Now()
	if _, _, err := brs.Run(tab.All(), weight.NewSize(tab.NumCols()), brs.Options{K: 4, MaxWeight: 4}); err != nil {
		t.Fatal(err)
	}
	exactDur := time.Since(start)

	// The paper's claim is relative — samples answer several times sooner
	// than the table (§4) — and the budget absolute; a constant for the
	// exact search's time would only date the test (it was "> 2s" until
	// the search got faster than that).
	if provDur > 250*time.Millisecond || 5*provDur > exactDur {
		t.Errorf("cold sampled drill-down took %s, want < 250ms and at most a fifth of the exact path's %s", provDur, exactDur)
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
	t.Logf("1M rows: provisional in %s, exact BRS over the rows %s (%.0fx), %d rules refined",
		provDur, exactDur, exactDur.Seconds()/provDur.Seconds(), len(e.Root().Children))
	t.Logf("1M rows: sampled root drill, its sample drawn from the distinct tuples, %s; exact drill through the engine %s building them, %s after",
		provDur, engineDur[0], engineDur[1])

	// Below the root: each child's sample is a draw over the distinct tuples
	// its rule covers, and a sample served again is read nothing.
	h := e.s.Handler()
	for _, n := range e.Root().Children {
		if n.Rule.Size() == tab.NumCols() {
			continue
		}
		start = time.Now()
		v, err := h.GetSample(n.Rule)
		if err != nil {
			t.Fatal(err)
		}
		createDur := time.Since(start)
		start = time.Now()
		if err := e.DrillDown(n); err != nil {
			t.Fatal(err)
		}
		t.Logf("1M rows: %v (count %.0f): sample by %s in %s, %d rows in %d distinct tuples; drill on it (%s) in %s, %d rows scanned",
			n.Rule, n.Count, v.Method, createDur, v.Tab.NumTuples(), v.Tab.NumRows(), e.LastAccessMethod(), time.Since(start), e.LastSearchStats().RowsScanned)
		if v.Method.String() != "Create" || e.LastAccessMethod() != "Find" || !v.Tab.Table().Weighted() {
			t.Fatalf("rule %v: sample by %s, then drilled by %s, weighted %v", n.Rule, v.Method, e.LastAccessMethod(), v.Tab.Table().Weighted())
		}
		if again, _ := h.GetSample(n.Rule); again.Read() != 0 || again.Tab != v.Tab {
			t.Fatalf("rule %v: a sample served again copied %d rows", n.Rule, again.Read())
		}
	}
	// The distinct table existed before the session did: nothing it has done
	// — Creates, drills, re-serves, refinement — passed over the rows.
	if st := e.s.Store().Stats(); st.FullScans != 0 {
		t.Errorf("the sampled session passed over the table's rows %d times", st.FullScans)
	}

	// CSV round trip at the same scale: the pipeline assigns every value
	// the id the generator's row-by-row Builder did.
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	start = time.Now()
	back, err := ReadCSV(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1M rows: %d MB of CSV ingested in %s", size>>20, time.Since(start))
	if back.NumRows() != tab.NumRows() || !slices.Equal(back.ColumnNames(), tab.ColumnNames()) {
		t.Fatalf("round trip: %d rows × %v, want %d × %v", back.NumRows(), back.ColumnNames(), tab.NumRows(), tab.ColumnNames())
	}
	for c := 0; c < tab.NumCols(); c++ {
		if back.DistinctCount(c) != tab.DistinctCount(c) {
			t.Fatalf("round trip: column %d has %d values, want %d", c, back.DistinctCount(c), tab.DistinctCount(c))
		}
		for id := rule.Value(0); int(id) < tab.DistinctCount(c); id++ {
			if got, want := back.Dict(c).Decode(id), tab.Dict(c).Decode(id); got != want {
				t.Fatalf("round trip: column %d value id %d is %q, want %q", c, id, got, want)
			}
		}
		for i := 0; i < tab.NumRows(); i++ {
			if back.Value(c, i) != tab.Value(c, i) {
				t.Fatalf("round trip: column %d row %d holds id %d, want %d", c, i, back.Value(c, i), tab.Value(c, i))
			}
		}
	}
}

// TestWideRootProbe is why the Section 6.1 probe stays, above a floor: on a
// tall, wide table — census 200 000 rows × 14 columns, whose rows do not
// compress — the probed root drill reads fewer rows, posting entries and
// bitmap words, the probe's included, than the same drill searched at the
// weighter's bound; on census 50 000 × 14, below the floor, the root drill is
// not probed and reads exactly what the drill at the bound does. Both checks
// are counts, not timings. Each drill is seconds of search, so the test is
// gated:
//
//	make large            # or SMARTDRILL_LARGE=1 go test -run TestWideRootProbe .
func TestWideRootProbe(t *testing.T) {
	if os.Getenv("SMARTDRILL_LARGE") == "" {
		t.Skip("set SMARTDRILL_LARGE=1 (or run `make large`) for the wide-table probe check")
	}
	reads := func(st SearchStats) int64 { return st.RowsScanned + st.PostingsRead + st.BitmapWordsRead }
	for _, shape := range []struct {
		rows   int
		probes bool
	}{
		{200000, true},
		{50000, false},
	} {
		tab := datagen.CensusProjected(shape.rows, 14, 7)
		tab.Distinct(new(table.Tally)) // resolved here, so that no drill below is booked the attempt
		root := func(opts ...Option) (SearchStats, bool, string) {
			e, err := New(tab, append(opts, WithK(3), WithCacheDisabled())...)
			if err != nil {
				t.Fatal(err)
			}
			rec := spans.Start()
			if err := e.DrillDownCtx(spans.With(context.Background(), &rec), e.Root()); err != nil {
				t.Fatal(err)
			}
			t.Logf("census %d × 14: root drill in %s, spans %s, %+v", shape.rows, rec.Total(), rec.String(), e.LastSearchStats())
			_, probed := rec.Duration(spans.MW)
			return e.LastSearchStats(), probed, e.Render()
		}
		probed, didProbe, rules := root()
		bound, _, boundRules := root(WithMaxWeight(weight.NewSize(14).MaxWeight(14)))
		if rules != boundRules {
			t.Errorf("census %d × 14: the root drill shows\n%s\nat the bound\n%s", shape.rows, rules, boundRules)
		}
		switch {
		case shape.probes && (!didProbe || reads(probed) >= reads(bound)):
			t.Errorf("census %d × 14: probed %v, the root drill read %d, %d at the bound; want a probe that reads less",
				shape.rows, didProbe, reads(probed), reads(bound))
		case !shape.probes && (didProbe || probed != bound):
			t.Errorf("census %d × 14: probed %v, the root drill was booked %+v, at the bound %+v; want no probe",
				shape.rows, didProbe, probed, bound)
		}
	}
}
