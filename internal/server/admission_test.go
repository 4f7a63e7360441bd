package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"smartdrill"
	"smartdrill/api"
)

func TestAdmissionAcquireRelease(t *testing.T) {
	// degradeAt = ceil-ish(2×1.0) = 2: only the last slot runs degraded.
	a := newAdmission(2, 10*time.Millisecond, 1.0)
	r1, deg1, ok := a.acquire(context.Background())
	if !ok || deg1 {
		t.Fatalf("first acquire: ok=%v degraded=%v", ok, deg1)
	}
	r2, deg2, ok := a.acquire(context.Background())
	if !ok || !deg2 {
		t.Fatalf("second acquire: ok=%v degraded=%v", ok, deg2)
	}
	if _, _, ok := a.acquire(context.Background()); ok {
		t.Fatal("third acquire should shed after the wait")
	}
	r1()
	r2()
	if n := len(a.slots); n != 0 {
		t.Fatalf("%d slots in use after releases", n)
	}
}

func TestAdmissionAcquireCanceledContext(t *testing.T) {
	a := newAdmission(1, time.Minute, 1)
	release, _, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire failed")
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, _, ok := a.acquire(ctx); ok {
		t.Fatal("acquire succeeded with all slots held")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("canceled acquire waited out the full minute")
	}
}

// TestOverloadSheds429: with a single slot held by a slow request, a
// second work request is shed with 429 overloaded and a positive integer
// Retry-After header.
func TestOverloadSheds429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, AdmissionWait: 5 * time.Millisecond})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: 1})

	// Occupy the only slot with a held-open stream request.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hold := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, "GET",
			ts.URL+"/v1/sessions/"+tree.ID+"/drill/stream?budget_ms=5000", nil)
		resp, err := http.DefaultClient.Do(req)
		close(hold)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // reads until cancel ends the stream
	}()
	<-hold
	time.Sleep(50 * time.Millisecond) // let the stream claim its slot

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", resp.Header.Get("Retry-After"))
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != api.ErrOverloaded {
		t.Fatalf("overload envelope: %+v err %v", env, err)
	}
	cancel() // release the stream's slot
	wg.Wait()

	// Ungated endpoints keep answering while work is shed.
	if code := doJSON(t, "GET", ts.URL+"/v1/health", nil, nil); code != http.StatusOK {
		t.Fatalf("health under overload: status %d", code)
	}
}

// TestDegradedSkipsBackgroundRefine: under degraded pressure a sampled
// drill keeps its provisional children — the background refiner is not
// scheduled — while the same drill unpressured refines them.
func TestDegradedSkipsBackgroundRefine(t *testing.T) {
	run := func(t *testing.T, pressure bool) (provisionalLeft bool) {
		t.Helper()
		// Four slots degrade from the third request in flight; one slot
		// rounds degradeAt to 1: every admitted request runs degraded.
		cfg := Config{BackgroundRefine: true, MaxConcurrent: 4}
		if pressure {
			cfg.MaxConcurrent = 1
		}
		s, ts := newTestServer(t, cfg)
		tree := createSession(t, ts.URL, api.CreateSessionRequest{
			Dataset: "store", Seed: 7, SampleMemory: 3000, MinSampleSize: 500,
		})
		var dr api.DrillResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill",
			api.DrillRequest{Node: tree.Root.ID}, &dr); code != http.StatusOK {
			t.Fatalf("drill: status %d", code)
		}
		s.WaitRefiners()
		var full api.Tree
		if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+tree.ID+"/tree", nil, &full); code != http.StatusOK {
			t.Fatalf("tree: status %d", code)
		}
		for _, c := range full.Root.Children {
			if !c.Exact {
				provisionalLeft = true
			}
		}
		return provisionalLeft
	}
	if run(t, false) {
		t.Fatal("unpressured drill left provisional children despite BackgroundRefine")
	}
	if !run(t, true) {
		t.Skip("sampled drill produced no provisional children to keep") // engine answered exactly; nothing to assert
	}
}

// TestDegradedForcesSampledPath: a degraded context forces the sampled
// (provisional) access path on a session whose views would otherwise be
// counted exactly.
func TestDegradedForcesSampledPath(t *testing.T) {
	eng, err := smartdrill.New(storeTable(),
		smartdrill.WithK(4),
		smartdrill.WithSeed(7),
		smartdrill.WithSampling(3000, 500),
		smartdrill.WithSampleThreshold(10_000_000), // threshold so high nothing samples normally
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DrillDownCtx(context.Background(), eng.Root()); err != nil {
		t.Fatal(err)
	}
	if got := eng.LastAccessMethod(); got != "direct" {
		t.Fatalf("unpressured drill used %q access, want direct", got)
	}
	eng.Collapse(eng.Root())

	ctx := smartdrill.WithDegraded(context.Background())
	if !smartdrill.IsDegraded(ctx) {
		t.Fatal("IsDegraded lost the flag")
	}
	if err := eng.DrillDownCtx(ctx, eng.Root()); err != nil {
		t.Fatal(err)
	}
	if got := eng.LastAccessMethod(); got == "direct" {
		t.Fatal("degraded drill still used the direct access path")
	}
}

// TestAdmissionDisabled: MaxConcurrent < 0 turns the limiter off entirely.
func TestAdmissionDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: -1})
	if s.adm != nil {
		t.Fatal("admission limiter built despite MaxConcurrent -1")
	}
	createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: 1})
}
