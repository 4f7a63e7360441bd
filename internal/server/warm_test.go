package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"smartdrill/api"
)

// TestWarmingPrecomputesDefaultDrills: with WarmChildren set, dataset
// registration precomputes the root expansion (plus top children) in the
// background, so the first analyst's default drill is served from the
// cache — zero passes, zero rows scanned — and the health report shows
// the warmed expansions.
func TestWarmingPrecomputesDefaultDrills(t *testing.T) {
	s, ts := newTestServer(t, Config{WarmChildren: 2})
	s.WaitWarmers()

	var h api.Health
	if code := doJSON(t, "GET", ts.URL+"/v1/health", nil, &h); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if len(h.Datasets) != 1 || h.Datasets[0].Cache == nil {
		t.Fatalf("health missing cache block: %+v", h.Datasets)
	}
	c := h.Datasets[0].Cache
	if c.Warmed != 3 { // root + 2 children
		t.Fatalf("warmed = %d, want 3 (root + 2 children)", c.Warmed)
	}
	if c.Entries < 3 || c.Misses < 3 {
		t.Fatalf("warming left cache cold: %+v", c)
	}

	// A default session's first drill replays the warmed expansion.
	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"})
	var dr api.DrillResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	if dr.Access != "cache" {
		t.Fatalf("warmed drill access = %q, want cache", dr.Access)
	}
	if dr.Search == nil || dr.Search.CacheHits != 1 || dr.Search.Passes != 0 || dr.Search.RowsScanned != 0 {
		t.Fatalf("warmed drill search stats = %+v; want CacheHits=1 Passes=0 RowsScanned=0", dr.Search)
	}
}

// TestHealthReportsCacheAndPersistFailures: the health body carries the
// persist-failure counter and a per-dataset cache block even with warming
// off.
func TestHealthReportsCacheAndPersistFailures(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h api.Health
	if code := doJSON(t, "GET", ts.URL+"/v1/health", nil, &h); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if h.PersistFailures != 0 {
		t.Fatalf("persist_failures = %d on a fresh memory-only server", h.PersistFailures)
	}
	if len(h.Datasets) != 1 || h.Datasets[0].Cache == nil {
		t.Fatalf("health missing cache block: %+v", h.Datasets)
	}
	if c := h.Datasets[0].Cache; c.Entries != 0 || c.Hits != 0 || c.Warmed != 0 {
		t.Fatalf("fresh cache counters = %+v", c)
	}
}

// TestCacheOffDisablesSharing: with CacheOff every drill executes — it
// reads the table, by whichever access path, and the cache files neither a
// hit nor a miss.
func TestCacheOffDisablesSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheOff: true, WarmChildren: 2})
	for i := 0; i < 2; i++ {
		tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"})
		var dr api.DrillResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
			t.Fatalf("drill: status %d", code)
		}
		if dr.Access == "cache" || dr.Search == nil || dr.Search.CacheHits != 0 || dr.Search.CacheMisses != 0 ||
			dr.Search.RowsScanned+dr.Search.PostingsRead+dr.Search.BitmapWordsRead == 0 {
			t.Fatalf("drill %d served from cache despite CacheOff: access=%q stats=%+v", i, dr.Access, dr.Search)
		}
	}
}

// TestServerTimingOnExecutedDrills: every work response says where its time
// went in a Server-Timing header, each span a parsable duration. A drill that
// executed its search names the admission and lock waits, resolve and brs (mw
// only where a probe ran — never on this small table); a drill the answer
// cache served names the two waits and nothing else. The warm log line names
// each warmed expansion's spans, which are its search's alone.
func TestServerTimingOnExecutedDrills(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Logger: log.New(&logged, "", 0), WarmChildren: 1})
	s.RegisterDataset("store", storeTable())
	s.WaitWarmers()
	searched := `\(resolve;dur=[0-9.]+, brs;dur=[0-9.]+\)`
	if line := regexp.MustCompile(`warmed 2 expansions in \S+: root ` + searched + `, child 0 ` + searched + `\n`); !line.Match(logged.Bytes()) {
		t.Errorf("warm log line does not name its expansions' spans: %q", logged.String())
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drill := func(req api.CreateSessionRequest) (access string, timing string) {
		t.Helper()
		tree := createSession(t, ts.URL, req)
		resp, err := http.Post(ts.URL+"/v1/sessions/"+tree.ID+"/drill", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr api.DrillResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("drill: status %d, decode error %v", resp.StatusCode, err)
		}
		return dr.Access, resp.Header.Get("Server-Timing")
	}

	// K 4 is not what the warmer asked for: the first such drill executes,
	// the second is served the entry the first published.
	miss := api.CreateSessionRequest{Dataset: "store", K: 4}
	access, timing := drill(miss)
	m := regexp.MustCompile(`^admit;dur=([0-9.]+), lock;dur=([0-9.]+), resolve;dur=([0-9.]+), brs;dur=([0-9.]+)$`).FindStringSubmatch(timing)
	if access != "direct" || m == nil {
		t.Fatalf("executed drill: access %q, Server-Timing %q", access, timing)
	}
	for _, dur := range m[1:] {
		if _, err := strconv.ParseFloat(dur, 64); err != nil {
			t.Errorf("Server-Timing %q: duration %q: %v", timing, dur, err)
		}
	}
	if brs, _ := strconv.ParseFloat(m[4], 64); brs <= 0 {
		t.Errorf("Server-Timing %q: the search took no time", timing)
	}
	waits := regexp.MustCompile(`^admit;dur=[0-9.]+, lock;dur=[0-9.]+$`)
	for _, hit := range []api.CreateSessionRequest{miss, {Dataset: "store"}} {
		if access, timing := drill(hit); access != "cache" || !waits.MatchString(timing) {
			t.Errorf("drill served from the cache (K %d): access %q, Server-Timing %q", hit.K, access, timing)
		}
	}
}
