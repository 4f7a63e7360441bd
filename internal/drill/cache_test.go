package drill

import (
	"context"
	"sync"
	"testing"

	"smartdrill/internal/brs"
	"smartdrill/internal/datagen"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/spans"
	"smartdrill/internal/weight"
)

// cacheOff is a search service with the answer cache off, for sessions
// whose every drill must execute.
func cacheOff() *search.Service { return search.NewService(search.Config{Disabled: true}) }

// TestRepeatedDrillServedFromCache is the headline acceptance check: a
// second identical full-table drill — from another session on the same
// dataset, or a re-expansion within one session — is answered from the
// shared cache with zero passes and zero rows scanned.
func TestRepeatedDrillServedFromCache(t *testing.T) {
	tab := datagen.CensusProjected(20000, 5, 13)
	svc := search.NewService(search.Config{})
	newSess := func() *Session {
		s, err := NewSession(tab, Config{K: 3, Search: svc})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := newSess()
	if err := s1.Expand(s1.Root()); err != nil {
		t.Fatal(err)
	}
	if s1.LastMethod == "cache" || s1.LastStats.Passes == 0 {
		t.Fatalf("first drill must execute: method=%q stats=%+v", s1.LastMethod, s1.LastStats)
	}
	if s1.LastStats.CacheMisses != 1 {
		t.Fatalf("first drill stats = %+v; want CacheMisses=1", s1.LastStats)
	}

	// Another analyst's identical drill on the same dataset: a pure hit.
	s2 := newSess()
	if err := s2.Expand(s2.Root()); err != nil {
		t.Fatal(err)
	}
	if s2.LastMethod != "cache" {
		t.Fatalf("second session's drill method = %q, want cache", s2.LastMethod)
	}
	if st := s2.LastStats; st.Passes != 0 || st.RowsScanned != 0 || st.CacheHits != 1 {
		t.Fatalf("cached drill stats = %+v; want Passes=0 RowsScanned=0 CacheHits=1", st)
	}
	// The cache counters also flow into the session's running totals.
	if hits := s2.TotalStats.CacheHits; hits != 1 {
		t.Fatalf("session cache-hit total = %d, want 1", hits)
	}

	// Re-expansion within one session after a roll-up is a hit too.
	s1.Collapse(s1.Root())
	if err := s1.Expand(s1.Root()); err != nil {
		t.Fatal(err)
	}
	if s1.LastMethod != "cache" || s1.LastStats.CacheHits != 1 {
		t.Fatalf("re-expansion method=%q stats=%+v", s1.LastMethod, s1.LastStats)
	}
	if c := svc.Counters(); c.Misses != 1 || c.Hits != 2 {
		t.Fatalf("counters = %+v; want 1 execution, 2 hits", c)
	}
}

// TestDegradedExactDrillServedFromCache: the overload ladder has no cheaper
// path for an exact session than its answer cache, so a degraded drill after
// the same drill was cached is a hit — access cache, nothing read — and the
// degraded rung skips nothing a hit would have paid for.
func TestDegradedExactDrillServedFromCache(t *testing.T) {
	tab := datagen.CensusProjected(20000, 5, 3)
	s, err := NewSession(tab, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod != "direct" || s.LastStats.CacheMisses != 1 {
		t.Fatalf("first drill: method=%q stats=%+v", s.LastMethod, s.LastStats)
	}
	want := s.Render()
	if err := s.ExpandCtx(WithDegraded(context.Background()), s.Root()); err != nil {
		t.Fatal(err)
	}
	if st := s.LastStats; s.LastMethod != "cache" || st != (brs.Stats{CacheHits: 1}) {
		t.Fatalf("degraded drill: method=%q stats=%+v; want a cache hit reading nothing", s.LastMethod, st)
	}
	if got := s.Render(); got != want {
		t.Fatalf("degraded drill shows\n%s\nwant\n%s", got, want)
	}
}

// TestConcurrentIdenticalDrillsExecuteOnce drives ten sessions into the
// same expansion at once: singleflight must collapse them onto a single
// BRS execution, with every other request either waiting on the flight or
// hitting the cache the leader published.
func TestConcurrentIdenticalDrillsExecuteOnce(t *testing.T) {
	tab := datagen.CensusProjected(20000, 5, 13)
	svc := search.NewService(search.Config{})

	const goroutines = 10
	sessions := make([]*Session, goroutines)
	for i := range sessions {
		s, err := NewSession(tab, Config{K: 3, Search: svc})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	start := make(chan struct{})
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			<-start
			errs[i] = s.Expand(s.Root())
		}(i, s)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	c := svc.Counters()
	if c.Misses != 1 {
		t.Fatalf("%d BRS executions for %d identical drills; want exactly 1 (counters %+v)", c.Misses, goroutines, c)
	}
	if c.Hits+c.SingleflightWaits != goroutines-1 {
		t.Fatalf("hits(%d)+waits(%d) != %d: every non-leader must be served without executing", c.Hits, c.SingleflightWaits, goroutines-1)
	}
}

// TestNearIdenticalDrillsGetDistinctKeys: requests differing in any
// identity field — k, weighter — must never share an answer. A session's
// seed is none: a drill differing only in it is served the same entry.
func TestNearIdenticalDrillsGetDistinctKeys(t *testing.T) {
	tab := datagen.StoreSales(42)
	svc := search.NewService(search.Config{})

	cols := tab.NumCols()
	variants := []Config{
		{K: 3, Search: svc},
		{K: 4, Search: svc}, // different k
		{K: 3, Search: svc, Weighter: weight.SizeMinusOne{}},                                   // different weighter
		{K: 3, Search: svc, Weighter: weight.NewBits(distinct(tab.All().DistinctCount, cols))}, // and another
	}
	for i, cfg := range variants {
		s, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Expand(s.Root()); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if s.LastMethod == "cache" {
			t.Fatalf("variant %d shared another variant's answer", i)
		}
	}
	s, err := NewSession(tab, Config{K: 3, Search: svc, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Expand(s.Root()); err != nil {
		t.Fatal(err)
	}
	if s.LastMethod != "cache" {
		t.Fatalf("a drill differing only in its session's seed was served by %q, want cache", s.LastMethod)
	}
	c := svc.Counters()
	if c.Misses != int64(len(variants)) || c.Hits != 1 {
		t.Fatalf("counters = %+v; want %d distinct executions, 1 hit", c, len(variants))
	}
}

// TestSeedStaysOutOfTheAnswer: above probeFloor a drill probes for mw, and
// the probe's draw is seeded from the question — the rule's coverage and k
// — not from the session. Two sessions that differ only in Seed get
// byte-identical root trees: executed, each probes and reads exactly what
// the other does; sharing a service, the second is served the first's one
// cache entry. Seed still fixes what a sampled session draws.
func TestSeedStaysOutOfTheAnswer(t *testing.T) {
	tab := lightTable(3000, 0, 0)
	withProbeFloor(t, tab.NumRows()-1)
	var rec spans.Record // the last root drill's spans
	root := func(cfg Config) *Session {
		t.Helper()
		cfg.K = 3
		s, err := NewSession(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec = spans.Start()
		if err := s.ExpandCtx(spans.With(context.Background(), &rec), s.Root()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	root(Config{Seed: 5, Search: cacheOff()}) // books the table's one attempt at its distinct tuples
	a := root(Config{Seed: 1, Search: cacheOff()})
	if mw, probed := rec.Duration(spans.MW); !probed || mw <= 0 || a.LastStats.RowsScanned == 0 {
		t.Fatalf("the root drill did not probe: spans %q, stats %+v", rec.String(), a.LastStats)
	}
	b := root(Config{Seed: 99, Search: cacheOff()})
	if a.Render() != b.Render() || a.LastStats != b.LastStats {
		t.Fatalf("seeds 1 and 99 drill\n%s%+v\nand\n%s%+v", a.Render(), a.LastStats, b.Render(), b.LastStats)
	}

	svc := search.NewService(search.Config{})
	c, d := root(Config{Seed: 1, Search: svc}), root(Config{Seed: 99, Search: svc})
	if d.LastMethod != "cache" {
		t.Fatalf("the seed-99 session's root drill was served by %q, want cache", d.LastMethod)
	}
	if n := svc.Counters(); n.Misses != 1 || n.Hits != 1 || n.Entries != 1 {
		t.Fatalf("counters = %+v; want one entry, executed once and hit once", n)
	}
	if c.Render() != a.Render() || d.Render() != a.Render() {
		t.Fatalf("shared-service sessions drill\n%s\nand\n%s\nthe executed ones\n%s", c.Render(), d.Render(), a.Render())
	}

	sampled := func(seed int64) string {
		return root(Config{Seed: seed, SampleMemory: 500, MinSampleSize: 500}).Render()
	}
	if sampled(3) != sampled(3) || sampled(3) == sampled(4) {
		t.Fatalf("sampled root drills: seed 3\n%s\nseed 3 again\n%s\nseed 4\n%s", sampled(3), sampled(3), sampled(4))
	}
}

// TestWorkersShareOneCacheEntry: a search answers and reads the same at
// any worker count, under Count and Sum alike, so Workers stays out of the
// cache key. Executed, sessions differing only in Workers drill the same
// root tree and read the same; sharing a service, the second is served the
// first's one entry.
func TestWorkersShareOneCacheEntry(t *testing.T) {
	tab := datagen.StoreSales(42)
	m, err := tab.MeasureIndex("Sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []score.Aggregator{score.CountAgg{}, score.SumAgg{Measure: m, Label: "Sales"}} {
		root := func(workers int, svc *search.Service) *Session {
			t.Helper()
			s, err := NewSession(tab, Config{K: 3, Agg: agg, Workers: workers, Search: svc})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Expand(s.Root()); err != nil {
				t.Fatal(err)
			}
			return s
		}
		root(1, cacheOff()) // books the table's one build of its distinct tuples
		a, b := root(1, cacheOff()), root(8, cacheOff())
		if a.Render() != b.Render() || a.LastStats != b.LastStats {
			t.Fatalf("%s: Workers 1 and 8 drill\n%s%+v\nand\n%s%+v", agg.Name(), a.Render(), a.LastStats, b.Render(), b.LastStats)
		}
		svc := search.NewService(search.Config{})
		root(1, svc)
		if d := root(8, svc); d.LastMethod != "cache" || d.Render() != a.Render() {
			t.Fatalf("%s: the Workers 8 session's root drill was served by %q:\n%s", agg.Name(), d.LastMethod, d.Render())
		}
		if n := svc.Counters(); n.Misses != 1 || n.Hits != 1 || n.Entries != 1 {
			t.Fatalf("%s: counters = %+v; want one entry, executed once and hit once", agg.Name(), n)
		}
	}
}

func distinct(count func(int) int, cols int) []int {
	out := make([]int, cols)
	for c := range out {
		out[c] = count(c)
	}
	return out
}
