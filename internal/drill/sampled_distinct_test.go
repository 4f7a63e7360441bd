package drill

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// A sampled Count drill searches its sample's distinct tuples, each
// weighing the sample rows equal to it, where an exact one searches the
// table's. Two sessions with one seed draw the same samples; rowPath keeps
// one of them on the sample's rows, and everything the other shows —
// estimates and their confidence intervals included — must be what it shows.

// sampledPair is two sessions over tab with one configuration and one seed,
// tup free to search its samples' distinct tuples and row held to their rows.
// Where a sample of more rows than the mw probe draws holds no more distinct
// tuples than that, only the row path would probe, and the tuple path
// searches at the weighter's bound; so does a row path told that bound.
func sampledPair(t *testing.T, tab *table.Table, cfg Config, rowProbesAlone bool) (tup, row *Session) {
	t.Helper()
	tup, err := NewSession(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rowProbesAlone {
		cfg.MaxWeight = cfg.Weighter.MaxWeight(tab.NumCols())
	}
	row, err = NewSession(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row.rowPath = true
	return tup, row
}

// both runs one step on the tuple-path session and on the row-path one, and
// holds the two to the same access method and the same displayed tree.
func both(t *testing.T, label string, tup, row *Session, step func(s *Session) error) {
	t.Helper()
	for _, s := range []*Session{tup, row} {
		if err := step(s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if tup.LastMethod != row.LastMethod {
		t.Fatalf("%s: access %q on the tuple path, %q on the rows", label, tup.LastMethod, row.LastMethod)
	}
	sameSubtree(t, label, tup.Root(), row.Root())
}

// TestEquivalenceSampledDistinctPath holds the sampled tuple path to the
// sampled row path on census- and Marketing-shaped tables and on one whose
// samples hold more distinct tuples than the mw probe draws — under Size,
// Bits and Size−1 weights and the star constraint over each, for rule, star
// and streamed drills at Workers 1, 2 and 8, on samples served by Create, by
// Find, by Combine (of a parent sample holding its rule's whole coverage) and
// under the overload ladder's forced sampling: the same rules in the same
// order with the same Count, MCount, mw and confidence interval, and the
// pass that groups a sample booked to the drill that caused it, once.
func TestEquivalenceSampledDistinctPath(t *testing.T) {
	ctx := context.Background()
	marketing, err := datagen.Marketing(9409, 3).ProjectFirst(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name       string
		tab        *table.Table
		memory     int
		minSS      int
		rootProbes bool // the root sample's distinct tuples exceed probeSize
		combines   bool // a child's whole coverage fits one sample, so its child is served by Combine
	}{
		{"census", datagen.CensusProjected(20000, 5, 7), 10000, 2500, false, false},
		{"marketing", marketing, 9409, 4000, false, false},
		{"census-small", datagen.CensusProjected(3000, 6, 9), 3000, 2400, false, true},
		{"pooled", pooledTable(rand.New(rand.NewSource(13)), 5, 6, 4000, 40000), 20000, 9000, true, false},
	} {
		tab := shape.tab
		tab.Index().Warm()
		cols := tab.NumCols()
		for wi, inner := range []weight.Weighter{weight.NewSize(cols), weight.BitsFor(tab), weight.SizeMinusOne{}} {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s %s workers=%d", shape.name, inner.Name(), workers)
				cfg := Config{
					K: 4, Weighter: inner, Workers: workers, Seed: int64(3 + wi),
					SampleMemory: shape.memory, MinSampleSize: shape.minSS,
				}
				tup, row := sampledPair(t, tab, cfg, !shape.rootProbes)
				root := func(s *Session) *Node { return s.Root() }
				expand := func(at func(*Session) *Node) func(*Session) error {
					return func(s *Session) error { return s.Expand(at(s)) }
				}

				// Create: the first drill draws the sample, groups it and is
				// booked the pass; Find: the second is booked nothing.
				both(t, label+" root (Create)", tup, row, expand(root))
				created, rowCreated := tup.LastStats, row.LastStats
				if tup.LastMethod != "Create" {
					t.Fatalf("%s: first root drill served by %s", label, tup.LastMethod)
				}
				interval := false
				for _, c := range tup.Root().Children {
					if c.Exact || !c.HasCI || c.CILow > c.Count || c.CIHigh < c.Count {
						t.Fatalf("%s: child %v shows [%v, %v] around %v, exact %v", label, c.Rule, c.CILow, c.CIHigh, c.Count, c.Exact)
					}
					interval = interval || c.CILow < c.CIHigh
				}
				if !interval {
					t.Fatalf("%s: every interval is a point: the bound was taken from the distinct rows", label)
				}
				both(t, label+" root (Find)", tup, row, expand(root))
				if tup.LastMethod != "Find" {
					t.Fatalf("%s: second root drill served by %s", label, tup.LastMethod)
				}
				found := tup.LastStats
				sample := int64(shape.minSS)
				if created.Passes != found.Passes+1 || created.RowsScanned != found.RowsScanned+sample ||
					created.SampledRowsScanned != found.SampledRowsScanned+sample || found.SampledRowsScanned != found.RowsScanned {
					t.Fatalf("%s: the Create drill read %d rows (%d sampled) in %d passes, the Find drill %d (%d) in %d; want the %d-row grouping pass in the first alone",
						label, created.RowsScanned, created.SampledRowsScanned, created.Passes, found.RowsScanned, found.SampledRowsScanned, found.Passes, sample)
				}
				if row.LastStats != rowCreated {
					t.Fatalf("%s: the row path's Find drill %+v differs from its Create drill %+v", label, row.LastStats, rowCreated)
				}

				// The search itself, where MCount and mw can be seen.
				star := 1
				for _, w := range []weight.Weighter{inner, weight.StarConstraint{Inner: inner, Column: star}} {
					tcov, err := tup.coveredView(tup.Root().Rule, w, false)
					if err != nil {
						t.Fatal(err)
					}
					rcov, err := row.coveredView(row.Root().Rule, w, false)
					if err != nil {
						t.Fatal(err)
					}
					tv, rv := tcov.view, rcov.view
					if !tv.Table().Weighted() || rv.Table() != tab || rcov.rows() != rv {
						t.Fatalf("%s: tuple path reads a weighted table %v, row path the table's rows %v", label, tv.Table().Weighted(), rv.Table() == tab)
					}
					if tv.NumTuples() != rv.NumRows() || tcov.rows().NumRows() != rv.NumRows() || tcov.rows().Table() != tab ||
						tcov.scale != rcov.scale || tcov.exact != rcov.exact {
						t.Fatalf("%s: %d tuples at scale %v on the tuple path (row view of %d), %d rows at scale %v on the row path",
							label, tv.NumTuples(), tcov.scale, tcov.rows().NumRows(), rv.NumRows(), rcov.scale)
					}
					if 2*tv.NumRows() > rv.NumRows() || (tv.NumRows() > probeSize) != shape.rootProbes || rv.NumRows() <= probeSize {
						t.Fatalf("%s: a root sample of %d rows holding %d distinct tuples is not the shape's", label, rv.NumRows(), tv.NumRows())
					}
					tmw := tup.maxWeightFor(ctx, tcov, w, 0)
					rmw := row.maxWeightFor(ctx, rcov, w, 0)
					top := w.MaxWeight(cols)
					if !shape.rootProbes {
						rmw = top // what the row session is configured with
					}
					if tmw != rmw {
						t.Fatalf("%s under %s: mw %v on the tuple path, %v on the rows", label, w.Name(), tmw, rmw)
					}
					opts := brs.Options{K: 4, MaxWeight: tmw, BaseCovered: true, Workers: workers, SampleScale: tcov.scale}
					got, _, err := brs.Run(tv, w, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := brs.Run(rv, w, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label+" under "+w.Name(), got, want)
				}

				both(t, label+" star drill", tup, row, func(s *Session) error { return s.ExpandStar(s.Root(), star) })
				both(t, label+" stream", tup, row, func(s *Session) error { return s.ExpandStream(s.Root(), 5, 0, nil) })
				if shape.rootProbes {
					// Below the root the two views fall on different sides of
					// the probe's size.
					continue
				}
				both(t, label+" root again", tup, row, expand(root))
				if drillable(tup.Root()) == nil {
					t.Fatalf("%s: no child to drill", label)
				}
				child := func(s *Session) *Node { return drillable(s.Root()) }
				both(t, label+" child", tup, row, expand(child))
				if !shape.combines {
					continue
				}
				// The child's sample holds every row the child covers, so the
				// drill below it is served by combining: a union that belongs
				// to no sample, grouped for this drill and booked to it.
				if tup.LastMethod != "Create" || !drillable(tup.Root()).Children[0].Exact {
					t.Fatalf("%s: the child drill (%s) did not hold its whole coverage", label, tup.LastMethod)
				}
				grandchild := func(s *Session) *Node { return drillable(child(s)) }
				if grandchild(tup) == nil {
					t.Fatalf("%s: no grandchild to drill", label)
				}
				for round := 0; round < 2; round++ {
					both(t, label+" grandchild", tup, row, expand(grandchild))
					if tup.LastMethod != "Combine" {
						t.Fatalf("%s: the grandchild drill was served by %s, want Combine", label, tup.LastMethod)
					}
					drilled := tup.LastStats
					tcov, err := tup.coveredView(grandchild(tup).Rule, inner, false)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := row.coveredView(grandchild(row).Rule, inner, false); err != nil {
						t.Fatal(err)
					}
					tup.unbooked = brs.Stats{} // the look above is no drill
					_, search, err := brs.Run(tcov.view, inner, brs.Options{
						K: 4, MaxWeight: tup.maxWeightFor(ctx, tcov, inner, 0), Base: grandchild(tup).Rule, BaseCovered: true,
						Workers: workers, SampleScale: tcov.scale,
					})
					if err != nil {
						t.Fatal(err)
					}
					// An exhaustive union is exact (scale 1), so the search
					// books no sampled rows of its own: what is booked as
					// sampled is the grouping pass, in each drill.
					union := int64(tcov.rows().NumRows())
					if !tcov.view.Table().Weighted() || tcov.scale != 1 || drilled.Passes != search.Passes+1 ||
						drilled.RowsScanned != search.RowsScanned+union || drilled.SampledRowsScanned != union {
						t.Fatalf("%s round %d: the Combine drill read %d rows (%d sampled) in %d passes; want the search's %d in %d and one grouping pass of %d",
							label, round, drilled.RowsScanned, drilled.SampledRowsScanned, drilled.Passes, search.RowsScanned, search.Passes, union)
					}
				}
			}
		}
	}
}

// TestEquivalenceSampledDistinctDegraded: a drill the overload ladder forces
// onto a sample goes through the same branch, and gets the same treatment.
func TestEquivalenceSampledDistinctDegraded(t *testing.T) {
	tab := datagen.CensusProjected(20000, 6, 11)
	ctx := WithDegraded(context.Background())
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{
			K: 4, Weighter: weight.NewSize(6), Workers: workers, Seed: 5,
			SampleMemory: 12000, MinSampleSize: 3000, SampleThreshold: 1 << 30,
		}
		tup, row := sampledPair(t, tab, cfg, true)
		label := fmt.Sprintf("workers=%d", workers)
		both(t, label+" undegraded", tup, row, func(s *Session) error { return s.Expand(s.Root()) })
		if tup.LastMethod != "direct" {
			t.Fatalf("%s: below the threshold the drill was served by %s", label, tup.LastMethod)
		}
		both(t, label+" degraded rule drill", tup, row, func(s *Session) error { return s.ExpandCtx(ctx, s.Root()) })
		if tup.LastMethod != "Create" || tup.Root().Children[0].Exact {
			t.Fatalf("%s: the degraded drill was served by %s, exact %v", label, tup.LastMethod, tup.Root().Children[0].Exact)
		}
		if cov, err := tup.coveredView(tup.Root().Rule, cfg.Weighter, true); err != nil || !cov.view.Table().Weighted() {
			t.Fatalf("%s: the degraded drill reads the sample's rows (%v)", label, err)
		}
		if _, err := row.coveredView(row.Root().Rule, cfg.Weighter, true); err != nil {
			t.Fatal(err)
		}
		both(t, label+" degraded star drill", tup, row, func(s *Session) error { return s.ExpandStarCtx(ctx, s.Root(), 2) })
		both(t, label+" degraded stream", tup, row, func(s *Session) error { return s.ExpandStreamCtx(ctx, s.Root(), 3, 0, nil) })
	}
}

// TestEquivalenceSampledDistinctGates: what cannot be summed per distinct
// tuple bit for bit is searched on the sample's rows without the sample ever
// being grouped for it — a Sum, weights that are not integers — and so is a
// sample more than half of whose rows are distinct, which costs the first
// drill on it the finding, once.
func TestEquivalenceSampledDistinctGates(t *testing.T) {
	sales := buildSalesTable(30000, 5)
	census := datagen.CensusProjected(30000, 7, 7)
	marketing := datagen.Marketing(9409, 3)
	const minSS = 3000
	for _, tc := range []struct {
		name    string
		tab     *table.Table
		cfg     Config
		grouped bool // the drill asked the sample for its tuples
		tuples  bool // and searched them
		// sample rows the asking read: all of them, or from the first tuple
		// beyond half of them being distinct to the row that showed it
		readMin, readMax int64
	}{
		{"size", census, Config{}, true, true, minSS, minSS},
		{"whole linear", census, Config{Weighter: weight.NewLinear([]float64{2, 1, 3, 1, 1, 2, 1}, 1, "whole")}, true, true, minSS, minSS},
		{"fractional linear", census, Config{Weighter: weight.NewLinear([]float64{1, 0.5, 1.25, 1, 1, 1, 1}, 1, "frac")}, false, false, 0, 0},
		{"fractional scale", census, Config{Weighter: weight.Scaled{Inner: weight.NewSize(7), Factor: 0.1}}, false, false, 0, 0},
		{"sum", sales, Config{Agg: score.SumAgg{Measure: 0}}, false, false, 0, 0},
		{"row path seam", census, Config{}, false, false, 0, 0},
		{"more than half distinct", marketing, Config{}, true, false, minSS/2 + 1, minSS - 1},
	} {
		cfg := tc.cfg
		cfg.K, cfg.Workers, cfg.Seed = 3, 1, 2
		cfg.MaxWeight = 2 // the gates do not look at mw, and fourteen columns searched unbounded take seconds
		cfg.SampleMemory, cfg.MinSampleSize = 9000, minSS
		s, err := NewSession(tc.tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.rowPath = tc.name == "row path seam"
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
		// The first drill is the second plus whatever asking cost.
		if d := drills[0].RowsScanned - drills[1].RowsScanned; d < tc.readMin || d > tc.readMax || drills[0].SampledRowsScanned-drills[1].SampledRowsScanned != d {
			t.Fatalf("%s: the first drill read %d rows (%d sampled) more than the second, want %d to %d",
				tc.name, d, drills[0].SampledRowsScanned-drills[1].SampledRowsScanned, tc.readMin, tc.readMax)
		}
		cov, err := s.coveredView(s.Root().Rule, s.cfg.Weighter, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := cov.view.Table().Weighted(); got != tc.tuples {
			t.Fatalf("%s: searched the sample's tuples: %v, want %v", tc.name, got, tc.tuples)
		}
		if s.unbooked != (brs.Stats{}) {
			t.Fatalf("%s: a sample served again was booked %+v", tc.name, s.unbooked)
		}
		// Whoever first asks a sample for its tuples is told the rows that
		// read; being told now means no drill asked before.
		v, err := s.handler.GetSample(s.Root().Rule)
		if err != nil {
			t.Fatal(err)
		}
		if _, read := v.Tuples(); (read == 0) != tc.grouped {
			t.Fatalf("%s: the drills grouped the sample: %v, want %v", tc.name, read == 0, tc.grouped)
		}
	}
}
