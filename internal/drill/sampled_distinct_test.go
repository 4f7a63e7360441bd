package drill

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// A sampled Count session under integer weights draws its samples from the
// table's distinct tuples (sampling.Handler.ServeGrouped): a sample is a
// weighted table of its own, a row for each distinct tuple it holds carrying
// the number of sampled rows equal to it. TestEquivalenceDrillPaths holds
// what such a session shows to brsref on the rows each sample stands for;
// the tests here hold which sessions draw tuples, and what each drill is
// booked for the sample's table.

// sampledStep drills s — step says how — requires the sample it searched to
// be a weighted table of its own, and returns what the drill was booked.
func sampledStep(t *testing.T, label string, s *Session, at func(*Session) *Node, w weight.Weighter, step func(*Node) error) brs.Stats {
	t.Helper()
	if at(s) == nil {
		t.Fatalf("%s: no node to drill", label)
	}
	if err := step(at(s)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	drilled := s.LastStats
	if len(at(s).Children) == 0 {
		t.Fatalf("%s: no rules", label)
	}
	cov, err := s.coveredView(at(s).Rule, w, false)
	if err != nil {
		t.Fatal(err)
	}
	s.unbooked = brs.Stats{}
	if !cov.view.Table().Weighted() || cov.view.NumRows() != cov.view.Table().NumRows() {
		t.Fatalf("%s: the sample is no weighted table of its own (weighted %v)", label, cov.view.Table().Weighted())
	}
	return drilled
}

// TestEquivalenceSampledDistinctPath: what a session whose samples are drawn
// from the distinct tuples is booked, on census- and Marketing-shaped tables
// and on one whose samples hold more distinct tuples than the mw probe draws,
// with the floor lowered below them — under Size, Bits and Size−1 weights,
// for rule, star and streamed drills at Workers 1, 2 and 8, on samples
// served by Create, by Find and by Combine (of a parent sample holding its
// rule's whole coverage). Each sample is a weighted table of its own. The
// drill that makes it is booked the distinct-table rows copied into it,
// once; a Combine, whose union is kept nowhere, each time; and no drill of
// the session passes over the table. (TestEquivalenceDrillPaths holds the
// answers to brsref.)
func TestEquivalenceSampledDistinctPath(t *testing.T) {
	marketing, err := datagen.Marketing(9409, 3).ProjectFirst(5)
	if err != nil {
		t.Fatal(err)
	}
	defaultFloor := probeFloor
	for _, shape := range []struct {
		name       string
		tab        *table.Table
		memory     int
		minSS      int
		rootProbes bool // the root sample's distinct tuples exceed probeSize, and the floor is lowered to it
		combines   bool // a child's whole coverage fits one sample, so its child is served by Combine
	}{
		{"census", datagen.CensusProjected(20000, 5, 7), 10000, 2500, false, false},
		{"marketing", marketing, 9409, 4000, false, false},
		{"census-small", datagen.CensusProjected(3000, 6, 9), 3000, 2400, false, true},
		{"pooled", pooledTable(rand.New(rand.NewSource(13)), 5, 6, 4000, 40000), 20000, 9000, true, false},
	} {
		floor := defaultFloor
		if shape.rootProbes {
			floor = probeSize
		}
		withProbeFloor(t, floor)
		tab := shape.tab
		// Resolved here, so that no drill below is booked the build.
		if d := tab.Distinct(new(table.Tally)); d == nil {
			t.Fatalf("%s does not compress", shape.name)
		}
		cols := tab.NumCols()
		for wi, inner := range []weight.Weighter{weight.NewSize(cols), weight.BitsFor(tab), weight.SizeMinusOne{}} {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s %s workers=%d", shape.name, inner.Name(), workers)
				s, err := NewSession(tab, Config{
					K: 4, Weighter: inner, Workers: workers, Seed: int64(3 + wi),
					SampleMemory: shape.memory, MinSampleSize: shape.minSS,
				})
				if err != nil {
					t.Fatal(err)
				}
				root := func(s *Session) *Node { return s.Root() }
				served := func(method string, step func(*Node) error) func(*Node) error {
					return func(n *Node) error {
						err := step(n)
						if err == nil && s.LastMethod != method {
							err = fmt.Errorf("served by %s, want %s", s.LastMethod, method)
						}
						return err
					}
				}
				const star = 1
				starred := weight.StarConstraint{Inner: inner, Column: star}

				// Create: the first drill draws the sample, builds its table
				// and is booked the tuples copied; Find: the second nothing.
				created := sampledStep(t, label+" root (Create)", s, root, inner, served("Create", s.Expand))
				interval := false
				for _, c := range s.Root().Children {
					if c.Exact || !c.HasCI || c.CILow > c.Count || c.CIHigh < c.Count {
						t.Fatalf("%s: child %v shows [%v, %v] around %v, exact %v", label, c.Rule, c.CILow, c.CIHigh, c.Count, c.Exact)
					}
					interval = interval || c.CILow < c.CIHigh
				}
				if !interval {
					t.Fatalf("%s: every interval is a point: the bound was taken from the distinct rows", label)
				}
				found := sampledStep(t, label+" root (Find)", s, root, inner, served("Find", s.Expand))
				cov, err := s.coveredView(s.Root().Rule, inner, false)
				if err != nil {
					t.Fatal(err)
				}
				// Where the root is probed, the probe's reads are the Find
				// drill's beyond its search, and not of the sample's rows.
				var probe brs.Stats
				if shape.rootProbes {
					_, probe = estimateMaxWeight(context.Background(), cov.view, inner, 4, s.probeSeed(s.Root().Rule, cov, 4))
				}
				tuples := int64(cov.view.NumRows())
				if cov.view.NumTuples() != shape.minSS || 2*tuples > int64(shape.minSS) || (tuples > int64(probeFloor)) != shape.rootProbes {
					t.Fatalf("%s: a root sample of %d rows in %d distinct tuples is not the shape's", label, cov.view.NumTuples(), tuples)
				}
				if created.Passes != found.Passes+1 || created.RowsScanned != found.RowsScanned+tuples ||
					created.SampledRowsScanned != found.SampledRowsScanned+tuples || found.SampledRowsScanned+probe.RowsScanned != found.RowsScanned {
					t.Fatalf("%s: the Create drill read %d rows (%d sampled) in %d passes, the Find drill %d (%d) in %d; want the %d tuples copied in the first alone",
						label, created.RowsScanned, created.SampledRowsScanned, created.Passes, found.RowsScanned, found.SampledRowsScanned, found.Passes, tuples)
				}

				sampledStep(t, label+" star drill", s, root, starred, func(n *Node) error { return s.ExpandStar(n, star) })
				sampledStep(t, label+" stream", s, root, inner, func(n *Node) error { return s.ExpandStream(n, 5, 0, nil) })
				sampledStep(t, label+" root again", s, root, inner, s.Expand)
				child := func(s *Session) *Node { return drillable(s.Root()) }
				sampledStep(t, label+" child", s, child, inner, served("Create", s.Expand))
				if shape.combines {
					// The child's sample holds every row the child covers, so
					// the drill below it is served by combining: a union that
					// belongs to no sample, its table built for this drill and
					// booked to it, each time.
					if !drillable(s.Root()).Children[0].Exact {
						t.Fatalf("%s: the child's sample does not hold its whole coverage", label)
					}
					grandchild := func(s *Session) *Node { return drillable(child(s)) }
					for round := 0; round < 2; round++ {
						drilled := sampledStep(t, label+" grandchild", s, grandchild, inner, served("Combine", s.Expand))
						gcov, err := s.coveredView(grandchild(s).Rule, inner, false)
						if err != nil {
							t.Fatal(err)
						}
						mw := s.maxWeightFor(context.Background(), grandchild(s).Rule, gcov, inner, 0)
						s.unbooked = brs.Stats{}
						_, search, err := brs.Run(gcov.view, inner, brs.Options{
							K: 4, MaxWeight: mw, Base: grandchild(s).Rule, BaseCovered: true,
							Workers: workers, SampleScale: gcov.scale,
						})
						if err != nil {
							t.Fatal(err)
						}
						// An exhaustive union is exact (scale 1), so the search
						// books no sampled rows of its own: what is booked as
						// sampled is the copy, in each drill.
						union := int64(gcov.view.NumRows())
						if gcov.scale != 1 || drilled.Passes != search.Passes+1 ||
							drilled.RowsScanned != search.RowsScanned+union || drilled.SampledRowsScanned != union {
							t.Fatalf("%s round %d: the Combine drill read %d rows (%d sampled) in %d passes; want the search's %d in %d and %d tuples copied",
								label, round, drilled.RowsScanned, drilled.SampledRowsScanned, drilled.Passes, search.RowsScanned, search.Passes, union)
						}
					}
				}
				if st := s.Store().Stats(); st.FullScans != 0 {
					t.Fatalf("%s: the session passed over the table %d times", label, st.FullScans)
				}
			}
		}
	}
}

// TestEquivalenceSampledDistinctDegraded: a drill the overload ladder forces
// onto a sample goes through the same branch, and gets the same treatment: a
// weighted table of the sample's own, made by a Create and found after it.
// (TestEquivalenceDrillPaths holds the answers to brsref.)
func TestEquivalenceSampledDistinctDegraded(t *testing.T) {
	tab := datagen.CensusProjected(20000, 6, 11)
	ctx := WithDegraded(context.Background())
	for _, workers := range []int{1, 2, 8} {
		inner := weight.NewSize(6)
		s, err := NewSession(tab, Config{
			K: 4, Weighter: inner, Workers: workers, Seed: 5,
			SampleMemory: 12000, MinSampleSize: 3000, SampleThreshold: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		if err := s.Expand(s.Root()); err != nil {
			t.Fatal(err)
		}
		if s.LastMethod != "direct" || !s.Root().Children[0].Exact {
			t.Fatalf("%s: below the threshold the drill was served by %s", label, s.LastMethod)
		}
		for _, d := range []struct {
			name   string
			method string
			w      weight.Weighter
			drill  func() error
		}{
			{"rule drill", "Create", inner, func() error { return s.ExpandCtx(ctx, s.Root()) }},
			{"star drill", "Find", weight.StarConstraint{Inner: inner, Column: 2}, func() error { return s.ExpandStarCtx(ctx, s.Root(), 2) }},
			{"stream", "Find", inner, func() error { return s.ExpandStreamCtx(ctx, s.Root(), 3, 0, nil) }},
		} {
			if err := d.drill(); err != nil {
				t.Fatal(err)
			}
			if s.LastMethod != d.method || len(s.Root().Children) == 0 || s.Root().Children[0].Exact {
				t.Fatalf("%s: the degraded %s was served by %s, exact %v", label, d.name, s.LastMethod, s.Root().Children[0].Exact)
			}
			cov, err := s.coveredView(s.Root().Rule, d.w, true)
			if err != nil {
				t.Fatal(err)
			}
			if !cov.view.Table().Weighted() || cov.view.NumRows() != cov.view.Table().NumRows() {
				t.Fatalf("%s: the degraded %s's sample is no weighted table of its own", label, d.name)
			}
		}
	}
}

// TestEquivalenceSampledDistinctGates: the form a session's handler serves
// its samples in. What cannot be summed per distinct tuple bit for bit — a
// Sum, weights that are not integers — gets plain rows, never grouped. A
// Count session under integer weights draws from the distinct tuples where
// the table compresses — the first serve booked the tuples it copied — and
// plain rows where it does not, however many of them repeat, for nothing. A
// sample served again comes in the form its first serve built, for nothing.
func TestEquivalenceSampledDistinctGates(t *testing.T) {
	sales := buildSalesTable(30000, 5)
	census := datagen.CensusProjected(30000, 7, 7)
	marketing := datagen.Marketing(9409, 3)
	const minSS = 3000
	skewed := skewedTable(30000)
	for _, tc := range []struct {
		name    string
		tab     *table.Table
		cfg     Config
		tuples  bool // the handler draws from the distinct tuples
		grouped bool // the search reads a weighted table
		// rows the first drill is booked beyond the second: the distinct
		// tuples copied into a tuple sample's table
		readMin, readMax int64
	}{
		{"size", census, Config{}, true, true, 1, minSS / 2},
		{"whole linear", census, Config{Weighter: weight.NewLinear([]float64{2, 1, 3, 1, 1, 2, 1}, 1, "whole")}, true, true, 1, minSS / 2},
		{"fractional linear", census, Config{Weighter: weight.NewLinear([]float64{1, 0.5, 1.25, 1, 1, 1, 1}, 1, "frac")}, false, false, 0, 0},
		{"fractional scale", census, Config{Weighter: weight.Scaled{Inner: weight.NewSize(7), Factor: 0.1}}, false, false, 0, 0},
		{"sum", sales, Config{Agg: score.SumAgg{Measure: 0}}, false, false, 0, 0},
		{"rows that repeat", skewed, Config{}, false, false, 0, 0},
		{"more than half distinct", marketing, Config{}, false, false, 0, 0},
	} {
		// Resolved here, so that no drill below is booked the build.
		tc.tab.Distinct(new(table.Tally))
		cfg := tc.cfg
		cfg.K, cfg.Workers, cfg.Seed = 3, 1, 2
		cfg.MaxWeight = 2 // the gates do not look at mw, and fourteen columns searched unbounded take seconds
		cfg.SampleMemory, cfg.MinSampleSize = 9000, minSS
		s, err := NewSession(tc.tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var drills [2]brs.Stats
		for i := range drills {
			if err := s.Expand(s.Root()); err != nil {
				t.Fatal(err)
			}
			if want := []string{"Create", "Find"}[i]; s.LastMethod != want || len(s.Root().Children) == 0 {
				t.Fatalf("%s: drill %d served by %s with %d rules, want %s", tc.name, i, s.LastMethod, len(s.Root().Children), want)
			}
			drills[i] = s.LastStats
		}
		// The first drill is the second plus whatever making the sample
		// searchable cost.
		if d := drills[0].RowsScanned - drills[1].RowsScanned; d < tc.readMin || d > tc.readMax || drills[0].SampledRowsScanned-drills[1].SampledRowsScanned != d {
			t.Fatalf("%s: the first drill read %d rows (%d sampled) more than the second, want %d to %d",
				tc.name, d, drills[0].SampledRowsScanned-drills[1].SampledRowsScanned, tc.readMin, tc.readMax)
		}
		cov, err := s.coveredView(s.Root().Rule, s.cfg.Weighter, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := cov.view.Table().Weighted(); got != tc.grouped {
			t.Fatalf("%s: searched a weighted table: %v, want %v", tc.name, got, tc.grouped)
		}
		if s.unbooked != (brs.Stats{}) {
			t.Fatalf("%s: a sample served again was booked %+v", tc.name, s.unbooked)
		}
		// One pass over the table per Create on the rows, none on the tuples.
		if scans := s.Store().Stats().FullScans; (scans == 0) != tc.tuples {
			t.Fatalf("%s: %d passes over the table", tc.name, scans)
		}
		// The handler serves the sample again in the form the first drill's
		// serve built, for nothing.
		v, err := s.handler.GetSample(s.Root().Rule)
		if err != nil {
			t.Fatal(err)
		}
		if v.Tab != cov.view || v.Read() != 0 {
			t.Fatalf("%s: served again the same view %v, %d rows read", tc.name, v.Tab == cov.view, v.Read())
		}
	}
}

// TestSampledSessionNeverPassesOverTheTable: once the table's distinct tuples
// exist, nothing a sampled Count session does — create, root, child, star and
// streamed drills, Find re-serves, prefetch after each of them — passes over
// the table's rows: every Create and Prefetch walks the distinct table. A
// re-served sample is booked no copy, and a prefetch's counts, the sums of
// the covered tuples' multiplicities, upgrade the display to exact.
func TestSampledSessionNeverPassesOverTheTable(t *testing.T) {
	tab := datagen.CensusProjected(100000, 7, 7)
	d := tab.Distinct(new(table.Tally))
	if d == nil {
		t.Fatal("census does not compress")
	}
	for _, prefetch := range []bool{false, true} {
		s, err := NewSession(tab, Config{
			K: 3, Workers: 1, Seed: 4, Prefetch: prefetch,
			SampleMemory: 20000, MinSampleSize: 2000, SampleThreshold: 10000,
		})
		if err != nil {
			t.Fatal(err)
		}
		walks := int64(0) // of the distinct table, by the handler
		step := func(label string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := s.Store().Stats()
			_, _, creates := s.Handler().Stats()
			if prefetch && label != "create" {
				walks++ // one per drill
			}
			if want := (int64(creates) + walks) * int64(d.NumRows()); st.FullScans != 0 || st.RowsRead != want {
				t.Fatalf("%s (prefetch %v): the store served %d passes over the table and %d rows, want none and %d (%d creates, %d prefetches, of %d distinct tuples)",
					label, prefetch, st.FullScans, st.RowsRead, want, creates, walks, d.NumRows())
			}
		}
		step("create", nil)
		step("root", s.Expand(s.Root()))
		first := s.LastStats
		step("root again", s.Expand(s.Root()))
		if !prefetch && (s.LastMethod != "Find" || s.LastStats.Passes != first.Passes-1 || s.LastStats.RowsScanned >= first.RowsScanned) {
			t.Fatalf("the re-served root drill (%s) read %d rows in %d passes after %d in %d", s.LastMethod, s.LastStats.RowsScanned, s.LastStats.Passes, first.RowsScanned, first.Passes)
		}
		step("child", s.Expand(drillable(s.Root())))
		last := s.Root().Children[len(s.Root().Children)-1]
		star := 0
		for last.Rule[star] != rule.Star {
			star++
		}
		step("star", s.ExpandStar(last, star))
		step("stream", s.ExpandStream(s.Root(), 4, 0, nil))
		if !prefetch {
			continue
		}
		for _, n := range s.Root().Children {
			if !n.Exact || n.HasCI || n.Count != float64(tab.Count(n.Rule)) {
				t.Fatalf("after a prefetch %v shows %v (exact %v), the table counts %d", n.Rule, n.Count, n.Exact, tab.Count(n.Rule))
			}
		}
	}
}

// TestEquivalenceSampledDistinctBuildBookedOnce: two sampled sessions racing
// through their first GetSample resolve the table's distinct tuples once — the
// pass is in exactly one session's first drill and that session's store —
// both draw from them, and a session after them is booked nothing.
// `make race` runs this under the detector.
func TestEquivalenceSampledDistinctBuildBookedOnce(t *testing.T) {
	tab := pooledTable(rand.New(rand.NewSource(21)), 4, 4, 150, 6000)
	var resolved []table.BuildReport
	tab.OnBuild(func(r table.BuildReport) {
		if !r.Index {
			resolved = append(resolved, r)
		}
	})
	cfg := Config{K: 3, Workers: 1, SampleMemory: 3000, MinSampleSize: 1000}
	sessions := make([]*Session, 3)
	for i := range sessions {
		cfg.Seed = int64(i + 1)
		s, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	if len(resolved) != 0 {
		t.Fatal("creating a sampled session resolved the distinct table")
	}
	var wg sync.WaitGroup
	for _, s := range sessions[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Expand(s.Root()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after := sessions[2]
	if err := after.Expand(after.Root()); err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 1 || resolved[0].Read != tab.NumRows() {
		t.Fatalf("resolved %+v, want once after %d rows", resolved, tab.NumRows())
	}
	d := tab.Distinct(new(table.Tally))
	builders := 0
	for i, s := range sessions {
		cov, err := s.coveredView(s.Root().Rule, s.cfg.Weighter, false)
		if err != nil {
			t.Fatal(err)
		}
		if !cov.view.Table().Weighted() || s.LastMethod != "Find" {
			t.Fatalf("session %d does not draw from the distinct tuples", i)
		}
		// Its drill: the search over the sample's tuples, their copy, and for
		// one of the racers the build.
		copied := int64(cov.view.NumRows())
		_, search, err := brs.Run(cov.view, s.cfg.Weighter, brs.Options{K: 3, MaxWeight: s.cfg.Weighter.MaxWeight(4), BaseCovered: true, Workers: 1, SampleScale: cov.scale})
		if err != nil {
			t.Fatal(err)
		}
		extra, passes := s.LastStats.RowsScanned-search.RowsScanned-copied, s.LastStats.Passes-search.Passes-1
		st := s.Store().Stats()
		switch {
		case extra == 0 && passes == 0 && st.FullScans == 0 && st.RowsRead == int64(d.NumRows()):
		case i < 2 && extra == int64(tab.NumRows()) && passes == 1 && st.FullScans == 1 && st.RowsRead == int64(tab.NumRows()+d.NumRows()):
			builders++
		default:
			t.Fatalf("session %d: its first drill read %d rows in %d passes beyond its search and copy, its store %+v", i, extra, passes, st)
		}
	}
	if builders != 1 {
		t.Fatalf("%d of the racing sessions were booked the build, want one", builders)
	}
}
