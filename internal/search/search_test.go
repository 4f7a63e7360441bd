package search

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/spans"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// testTable builds a small deterministic two-column table with enough
// structure for BRS to find rules.
func testTable() *table.Table {
	b := table.MustBuilder([]string{"A", "B"}, nil)
	rows := [][]string{
		{"x", "y"}, {"x", "y"}, {"x", "y"}, {"x", "z"},
		{"w", "y"}, {"w", "y"}, {"w", "z"}, {"v", "z"},
	}
	for _, r := range rows {
		b.MustAddRow(r)
	}
	return b.Build()
}

// batchReq builds a cacheable batch request against tab. Resolve counts
// its invocations through resolves so tests can assert whether a request
// executed or was served from the cache.
func batchReq(tab *table.Table, resolves *atomic.Int32) Request {
	return Request{
		Kind:      KindBatch,
		Rule:      rule.Trivial(tab.NumCols()),
		K:         2,
		Weighter:  weight.NewSize(tab.NumCols()),
		Agg:       score.CountAgg{},
		MaxWeight: 10, // fixed mw: MaxWeightFor must not be needed
		Resolve: func() (*table.View, float64, bool, error) {
			resolves.Add(1)
			return tab.All(), 1, true, nil
		},
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{})

	ran, served := spans.Start(), spans.Start()
	first, err := svc.Run(spans.With(context.Background(), &ran), batchReq(tab, &resolves))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Stats.CacheMisses != 1 || len(first.Results) == 0 {
		t.Fatalf("first run: cached=%v misses=%d results=%d", first.Cached, first.Stats.CacheMisses, len(first.Results))
	}
	second, err := svc.Run(spans.With(context.Background(), &served), batchReq(tab, &resolves))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical run not served from cache")
	}
	// A hit never resolves the view or runs a pass; its stats carry only
	// the hit marker (the stored run's work was already accounted).
	if resolves.Load() != 1 {
		t.Fatalf("resolve ran %d times; cache hit must skip it", resolves.Load())
	}
	if second.Stats.CacheHits != 1 || second.Stats.Passes != 0 || second.Stats.RowsScanned != 0 {
		t.Fatalf("hit stats = %+v; want only CacheHits=1", second.Stats)
	}
	// Only the run that executed has spans: the service adds resolve and
	// brs, never mw (the session's probe adds that).
	if brs, ok := ran.Duration(spans.BRS); !ok || brs <= 0 || ran.String() == "" {
		t.Fatalf("executed run's spans: %q", ran.String())
	}
	if _, ok := ran.Duration(spans.Resolve); !ok {
		t.Fatalf("executed run's spans: %q", ran.String())
	}
	if _, ok := ran.Duration(spans.MW); ok {
		t.Fatalf("the service timed a probe: %q", ran.String())
	}
	if got := served.String(); got != "" {
		t.Fatalf("the hit has spans %q", got)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("cached results diverge:\nfirst:  %v\nsecond: %v", first.Results, second.Results)
	}
	c := svc.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Entries != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestHitAllocsWithRecord: a cache hit allocates the same whether or not
// its context carries a span record — serving a hit adds no span, so the
// record costs the hot path nothing.
func TestHitAllocsWithRecord(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{})
	req := batchReq(tab, &resolves)
	if _, err := svc.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	rec := spans.Start()
	hit := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(200, func() {
			if resp, err := svc.Run(ctx, req); err != nil || !resp.Cached {
				t.Fatalf("not a hit: cached %v, err %v", resp.Cached, err)
			}
		})
	}
	bare, traced := hit(context.Background()), hit(spans.With(context.Background(), &rec))
	if bare != traced || rec.String() != "" {
		t.Fatalf("a hit allocates %v bare, %v with a record (spans %q)", bare, traced, rec.String())
	}
}

func TestHitResultsAreClones(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{})

	first, err := svc.Run(context.Background(), batchReq(tab, &resolves))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]brs.Result(nil), cloneResults(first.Results)...)
	// Corrupt the caller's copy in place: the cache's master must be
	// unaffected, and so must every later hit.
	for i := range first.Results {
		for c := range first.Results[i].Rule {
			first.Results[i].Rule[c] = 999
		}
		first.Results[i].Count = -1
	}
	second, err := svc.Run(context.Background(), batchReq(tab, &resolves))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Results, want) {
		t.Fatalf("mutating a served response corrupted the cache:\ngot  %v\nwant %v", second.Results, want)
	}
}

func TestLRUBoundAndEviction(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{Entries: 2})

	reqWithK := func(k int) Request {
		r := batchReq(tab, &resolves)
		r.K = k // distinct key per k
		return r
	}
	for k := 1; k <= 3; k++ {
		if _, err := svc.Run(context.Background(), reqWithK(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c := svc.Counters(); c.Entries != 2 {
		t.Fatalf("entries = %d, want LRU bound 2", c.Entries)
	}
	// K 1 is the least recently used and must have been evicted: its
	// re-run executes again. K 3 is still resident: a hit.
	before := resolves.Load()
	if resp, err := svc.Run(context.Background(), reqWithK(1)); err != nil || resp.Cached {
		t.Fatalf("evicted key served from cache (err=%v cached=%v)", err, resp.Cached)
	}
	if resolves.Load() != before+1 {
		t.Fatal("evicted key did not re-execute")
	}
	if resp, err := svc.Run(context.Background(), reqWithK(3)); err != nil || !resp.Cached {
		t.Fatalf("resident key not served from cache (err=%v cached=%v)", err, resp.Cached)
	}
}

func TestBypassesNeverTouchCache(t *testing.T) {
	tab := testTable()
	cases := []struct {
		name string
		cfg  Config
		mod  func(*Request)
	}{
		{"disabled service", Config{Disabled: true}, func(*Request) {}},
		{"Sampled request", Config{}, func(r *Request) { r.Sampled = true }},
		{"deadline stream", Config{}, func(r *Request) {
			r.Kind = KindStream
			r.Deadline = time.Now().Add(time.Minute)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resolves atomic.Int32
			svc := NewService(tc.cfg)
			for i := 0; i < 2; i++ {
				req := batchReq(tab, &resolves)
				tc.mod(&req)
				resp, err := svc.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Cached {
					t.Fatal("bypass request served from cache")
				}
			}
			if resolves.Load() != 2 {
				t.Fatalf("resolve ran %d times, want 2 (no sharing)", resolves.Load())
			}
			if c := svc.Counters(); c.Entries != 0 || c.Hits != 0 || c.Misses != 0 {
				t.Fatalf("bypass requests touched the cache: %+v", c)
			}
		})
	}
}

// counting is a request's context that counts the requests waiting on
// another's flight: a waiter asks its context for Done where it waits, and
// nothing else in a search does.
type counting struct {
	context.Context
	waits *atomic.Int32
}

func (c counting) Done() <-chan struct{} {
	c.waits.Add(1)
	return c.Context.Done()
}

func TestSingleflightCollapsesConcurrentIdentical(t *testing.T) {
	tab := testTable()
	svc := NewService(Config{})

	var execs atomic.Int32
	var waiting atomic.Int32
	gate := make(chan struct{})
	mkReq := func() Request {
		var ignored atomic.Int32
		req := batchReq(tab, &ignored)
		req.Resolve = func() (*table.View, float64, bool, error) {
			execs.Add(1)
			<-gate // hold the flight open until every waiter has joined
			return tab.All(), 1, true, nil
		}
		return req
	}

	const waiters = 9
	results := make([]Response, 1+waiters)
	errs := make([]error, 1+waiters)
	recs := make([]spans.Record, 1+waiters) // each request's own
	var wg sync.WaitGroup

	// Elect a deterministic leader: start one request and wait until it is
	// inside Resolve (flight registered) before releasing the others.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = svc.Run(spans.With(context.Background(), &recs[0]), mkReq())
	}()
	waitFor(t, func() bool { return execs.Load() == 1 })

	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Run(counting{spans.With(context.Background(), &recs[i]), &waiting}, mkReq())
		}(i)
	}
	waitFor(t, func() bool { return waiting.Load() == waiters })
	close(gate)
	wg.Wait()

	if execs.Load() != 1 {
		t.Fatalf("BRS executed %d times for %d identical requests", execs.Load(), 1+waiters)
	}
	c := svc.Counters()
	if c.Misses != 1 || c.SingleflightWaits != waiters || c.Hits != 0 {
		t.Fatalf("counters = %+v; want misses=1 waits=%d hits=0", c, waiters)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		if !reflect.DeepEqual(results[i].Results, results[0].Results) {
			t.Fatalf("request %d diverged from the leader", i)
		}
	}
	if results[0].Cached || results[0].Stats.CacheMisses != 1 {
		t.Fatalf("leader stats = %+v", results[0].Stats)
	}
	for i := 1; i <= waiters; i++ {
		if !results[i].Cached || results[i].Stats.SingleflightWaits != 1 {
			t.Fatalf("waiter %d stats = %+v cached=%v", i, results[i].Stats, results[i].Cached)
		}
		// A wait executed nothing: no span of the leader's is its.
		if got := recs[i].String(); got != "" {
			t.Fatalf("waiter %d has spans %q", i, got)
		}
	}
	if _, ran := recs[0].Duration(spans.BRS); !ran {
		t.Fatalf("the leader's spans %q have no brs", recs[0].String())
	}
}

func TestCanceledLeaderReelectsWaiter(t *testing.T) {
	tab := testTable()
	svc := NewService(Config{})

	var waiting atomic.Int32

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderIn := make(chan struct{})
	leaderReq := Request{
		Kind: KindBatch, Rule: rule.Trivial(2), K: 2,
		Weighter: weight.NewSize(2), Agg: score.CountAgg{}, MaxWeight: 10,
		Resolve: func() (*table.View, float64, bool, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, 0, false, leaderCtx.Err()
		},
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.Run(leaderCtx, leaderReq)
		leaderErr <- err
	}()
	<-leaderIn

	var resolves atomic.Int32
	waiterDone := make(chan struct{})
	var waiterResp Response
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterResp, waiterErr = svc.Run(counting{context.Background(), &waiting}, batchReq(tab, &resolves))
	}()
	waitFor(t, func() bool { return waiting.Load() == 1 })
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want Canceled", err)
	}
	<-waiterDone
	// The leader's cancellation says nothing about the waiter's request:
	// the waiter must have re-elected itself and completed the search.
	if waiterErr != nil {
		t.Fatalf("waiter poisoned by canceled leader: %v", waiterErr)
	}
	if waiterResp.Cached || resolves.Load() != 1 || len(waiterResp.Results) == 0 {
		t.Fatalf("waiter did not re-run: cached=%v resolves=%d results=%d",
			waiterResp.Cached, resolves.Load(), len(waiterResp.Results))
	}
	// And its completed run is published for everyone after it.
	if resp, err := svc.Run(context.Background(), batchReq(tab, &resolves)); err != nil || !resp.Cached {
		t.Fatalf("re-elected run not cached (err=%v cached=%v)", err, resp.Cached)
	}
}

func TestGenuineFailureSharedWithWaiters(t *testing.T) {
	tab := testTable()
	svc := NewService(Config{})
	var waiting atomic.Int32

	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	leaderReq := batchReq(tab, new(atomic.Int32))
	leaderReq.Resolve = func() (*table.View, float64, bool, error) {
		close(leaderIn)
		<-gate
		return nil, 0, false, boom
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.Run(context.Background(), leaderReq)
		leaderErr <- err
	}()
	<-leaderIn

	waiterErr := make(chan error, 1)
	go func() {
		_, err := svc.Run(counting{context.Background(), &waiting}, batchReq(tab, new(atomic.Int32)))
		waiterErr <- err
	}()
	waitFor(t, func() bool { return waiting.Load() == 1 })
	close(gate)

	// A genuine search failure (not a leader-local cancellation) would hit
	// any executor alike, so the waiter fails fast with the same error.
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want the leader's failure", err)
	}
}

// TestPanickingLeaderRetiresFlight: a search that panics still retires its
// flight, so the next identical request leads a run of its own and
// publishes it, instead of waiting on the dead flight until its deadline.
func TestPanickingLeaderRetiresFlight(t *testing.T) {
	tab := testTable()
	svc := NewService(Config{})
	panicking := batchReq(tab, new(atomic.Int32))
	panicking.Resolve = func() (*table.View, float64, bool, error) { panic("boom") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking search returned")
			}
		}()
		_, _ = svc.Run(context.Background(), panicking)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var resolves atomic.Int32
	resp, err := svc.Run(ctx, batchReq(tab, &resolves))
	if err != nil || resp.Cached || resolves.Load() != 1 || len(resp.Results) == 0 {
		t.Fatalf("after a panicking leader: err=%v cached=%v resolves=%d results=%d",
			err, resp.Cached, resolves.Load(), len(resp.Results))
	}
	if resp, err := svc.Run(context.Background(), batchReq(tab, &resolves)); err != nil || !resp.Cached {
		t.Fatalf("the run after the panic was not published (err=%v cached=%v)", err, resp.Cached)
	}
}

func streamReq(tab *table.Table, resolves *atomic.Int32) Request {
	req := batchReq(tab, resolves)
	req.Kind = KindStream
	return req
}

func TestTruncatedStreamNeverCached(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{})

	req := streamReq(tab, &resolves)
	req.Yield = func(brs.Result) bool { return false } // consumer stops after one rule
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("stopped stream delivered %d rules", len(resp.Results))
	}
	if c := svc.Counters(); c.Entries != 0 {
		t.Fatal("a consumer-truncated stream entered the cache")
	}
	// A later unbounded identical stream must run for real and see the
	// full rule list, not the truncation.
	full, err := svc.Run(context.Background(), streamReq(tab, &resolves))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached || len(full.Results) <= 1 || resolves.Load() != 2 {
		t.Fatalf("truncated result replayed as complete: cached=%v rules=%d resolves=%d",
			full.Cached, len(full.Results), resolves.Load())
	}
}

func TestStreamReplayDrivesYield(t *testing.T) {
	tab := testTable()
	var resolves atomic.Int32
	svc := NewService(Config{})

	var live []rule.Rule
	req := streamReq(tab, &resolves)
	req.Yield = func(r brs.Result) bool { live = append(live, r.Rule); return true }
	if _, err := svc.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	var replayed []rule.Rule
	req2 := streamReq(tab, &resolves)
	req2.Yield = func(r brs.Result) bool { replayed = append(replayed, r.Rule); return true }
	resp, err := svc.Run(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resolves.Load() != 1 {
		t.Fatalf("second stream not replayed (cached=%v resolves=%d)", resp.Cached, resolves.Load())
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay diverged:\nlive:     %v\nreplayed: %v", live, replayed)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
