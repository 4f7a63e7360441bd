package search_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"smartdrill/internal/baseline"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/table"
)

// randomTable is 600 rows over three columns of 3, 2 and 4 values, with a
// measure that is sometimes negative (a Sum counts those as zero).
func randomTable(t *testing.T) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	vals := []int{3, 2, 4}
	b := table.MustBuilder([]string{"A", "B", "C"}, []string{"M"})
	for i := 0; i < 600; i++ {
		row := make([]string, len(vals))
		for c, n := range vals {
			row[c] = strconv.Itoa(rng.Intn(n))
		}
		b.MustAddRow(row, rng.Float64()*100-10)
	}
	tab := b.Build()
	for c, n := range vals {
		if tab.DistinctCount(c) != n {
			t.Fatalf("column %d shows %d of its %d values", c, tab.DistinctCount(c), n)
		}
	}
	return tab
}

// sampledSession is a session over tab that samples (300 of its 600 rows)
// and shares svc, expanded once at the root so its children are
// provisional.
func sampledSession(t *testing.T, tab *table.Table, agg score.Aggregator, svc *search.Service) *drill.Session {
	t.Helper()
	s, err := drill.NewSession(tab, drill.Config{K: 3, Agg: agg, SampleMemory: 300, MinSampleSize: 100, Seed: 5, Search: svc})
	if err != nil {
		t.Fatal(err)
	}
	if s.Handler() == nil {
		t.Fatal("the session does not sample")
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if len(s.ProvisionalNodes()) == 0 {
		t.Fatal("the sampled expansion left no provisional node")
	}
	return s
}

// rowSum is what summing r's rows of tab in row order gives under agg.
func rowSum(tab *table.Table, r rule.Rule, agg score.Aggregator) float64 {
	sum := 0.0
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Covers(r, i) {
			sum += agg.Mass(tab, i)
		}
	}
	return sum
}

// TestEquivalenceRefineOverDistinct: a refine is no search. A Count refine
// reads the distinct tuples its rule covers, a Sum refine the rows, and each
// returns what summing the rule's rows in row order returns — the count as
// the same integer, the sum as the same float. The session's totals are
// booked one pass a refine over those tuples or rows, and the search service
// the session shares runs, waits on and caches nothing for any of it. Only
// Count builds the table's distinct tuples, once.
func TestEquivalenceRefineOverDistinct(t *testing.T) {
	tab := randomTable(t)
	built := 0
	tab.OnBuild(func(r table.BuildReport) {
		if !r.Index {
			built++
		}
	})
	// Sum first: it must leave the distinct tuples unbuilt.
	for _, agg := range []score.Aggregator{score.SumAgg{Measure: 0}, score.CountAgg{}} {
		svc := search.NewService(search.Config{})
		s := sampledSession(t, tab, agg, svc)
		read, covers := tab, tab.Covers
		if _, isCount := agg.(score.CountAgg); isCount {
			d, _ := tab.Distinct()
			if d == nil {
				t.Fatal("the table does not compress: Count would not read distinct tuples")
			}
			read, covers = d, d.Covers
		}
		counters := svc.Counters()
		for _, n := range s.ProvisionalNodes() {
			var tuples int64
			for i := 0; i < read.NumRows(); i++ {
				if covers(n.Rule, i) {
					tuples++
				}
			}
			before := s.TotalStats
			if !s.RefineNode(n) {
				t.Fatalf("%s: node %v did not refine", agg.Name(), n.Rule)
			}
			if want := rowSum(tab, n.Rule, agg); n.Count != want {
				t.Fatalf("%s refine of %v: %v, want %v", agg.Name(), n.Rule, n.Count, want)
			}
			if p, r := s.TotalStats.Passes-before.Passes, s.TotalStats.RowsScanned-before.RowsScanned; p != 1 || r != tuples {
				t.Fatalf("%s refine of %v booked %d passes and %d rows, want 1 and the %d it covers", agg.Name(), n.Rule, p, r, tuples)
			}
		}
		if got := svc.Counters(); got != counters {
			t.Fatalf("%s refines moved the service's counters from %+v to %+v", agg.Name(), counters, got)
		}
		if _, isCount := agg.(score.CountAgg); isCount != (built == 1) || built > 1 {
			t.Fatalf("after the %s refines the distinct tuples were built %d times", agg.Name(), built)
		}
	}
}

// TestRefineAndTraditionalCached: refines and listings leave what the
// service caches cached, and are never cached themselves. Between an exact
// root drill and its twin from another session, a sampled session sharing
// the service refines its provisional nodes and an exact one lists every
// column twice; the twin is a hit, the service shows the one execution, the
// one hit and the one entry, a repeated listing equals the first and the
// baseline's over the whole table, and a listing's groups are the caller's
// own: mutating them leaves the next listing unchanged.
func TestRefineAndTraditionalCached(t *testing.T) {
	tab := randomTable(t)
	agg := score.CountAgg{}
	svc := search.NewService(search.Config{})
	exact := func() *drill.Session {
		t.Helper()
		s, err := drill.NewSession(tab, drill.Config{K: 3, Agg: agg, Search: svc})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := exact()
	if s.LastMethod == "cache" || s.LastStats.CacheMisses != 1 {
		t.Fatalf("first drill must execute: method=%q stats=%+v", s.LastMethod, s.LastStats)
	}

	sampled := sampledSession(t, tab, agg, svc)
	for _, n := range sampled.ProvisionalNodes() {
		if !sampled.RefineNode(n) || n.Count != rowSum(tab, n.Rule, agg) {
			t.Fatalf("refine of %v gives %v, the rows %v", n.Rule, n.Count, rowSum(tab, n.Rule, agg))
		}
	}
	for _, n := range append([]*drill.Node{s.Root()}, s.Root().Children...) {
		for c := 0; c < tab.NumCols(); c++ {
			first, err := s.Traditional(n, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := baseline.TraditionalDrillDown(tab.All(), n.Rule, c, agg)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 || !reflect.DeepEqual(first, want) {
				t.Fatalf("listing of %v on column %d is\n%v\nthe rows give\n%v", n.Rule, c, first, want)
			}
			first[0].Count = -1
			first[0].Rule[c] = rule.Star
			second, err := s.Traditional(n, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(second, want) {
				t.Fatalf("repeated listing of %v on column %d is\n%v\nwant\n%v", n.Rule, c, second, want)
			}
		}
	}

	twin := exact()
	if twin.LastMethod != "cache" || twin.LastStats.CacheHits != 1 {
		t.Fatalf("twin drill: method=%q stats=%+v; want a cache hit", twin.LastMethod, twin.LastStats)
	}
	if c := svc.Counters(); c.Misses != 1 || c.Hits != 1 || c.Entries != 1 {
		t.Fatalf("counters = %+v; want 1 execution, 1 hit, 1 entry", c)
	}
}
