package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smartdrill/api"
)

// lineLog is a Logger sink the test reads while the server writes to it.
type lineLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lineLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// accessLine matches the access line withLogging prints for a request.
var accessLine = regexp.MustCompile(`(?m)^\S+ \S+ \d+ \d+B (\S+) rid=(\S+)(?: timing=\((.*)\))?$`)

// access waits for the access line of request rid — it is printed after
// the response is written, so it may trail the client's read — and returns
// its total and its rendering of the spans.
func (l *lineLog) access(t *testing.T, rid string) (time.Duration, string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		l.mu.Lock()
		logged := l.b.String()
		l.mu.Unlock()
		for _, m := range accessLine.FindAllStringSubmatch(logged, -1) {
			if m[2] == rid {
				total, err := time.ParseDuration(m[1])
				if err != nil {
					t.Fatalf("%s: access line total %q: %v", rid, m[1], err)
				}
				return total, m[3]
			}
		}
	}
	t.Fatalf("no access line for %s", rid)
	return 0, ""
}

// parseTiming parses a Server-Timing value into milliseconds by span name,
// failing on a name that is not one of the six spans, a repeat, or a
// duration that does not parse.
func parseTiming(t *testing.T, rid, timing string) map[string]float64 {
	t.Helper()
	six := map[string]bool{"admit": true, "lock": true, "resolve": true, "mw": true, "brs": true, "save": true}
	out := map[string]float64{}
	if timing == "" {
		return out
	}
	for _, entry := range strings.Split(timing, ", ") {
		name, dur, ok := strings.Cut(entry, ";dur=")
		ms, err := strconv.ParseFloat(dur, 64)
		if !ok || err != nil || !six[name] || ms < 0 {
			t.Fatalf("%s: Server-Timing %q: entry %q is not one of the six spans with a duration", rid, timing, entry)
		}
		if _, seen := out[name]; seen {
			t.Fatalf("%s: Server-Timing %q names %s twice", rid, timing, name)
		}
		out[name] = ms
	}
	return out
}

// waitQueued returns once a goroutine is blocked in admission's queue.
func waitQueued(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "(*admission).acquire") {
				return
			}
		}
	}
	t.Fatal("no request queued for an admission slot")
}

// TestEveryWorkResponseCarriesItsSpans drives every work route of a durable
// server with one admission slot and holds each response's Server-Timing
// header to the request's access line: it names only the six spans, they sum
// to no more than the line's total, a hit has no search spans, a mutation
// shows its save, a request queued behind a held slot shows the wait, and
// the stream — whose header goes out before it searches — shows its search
// in its access line.
func TestEveryWorkResponseCarriesItsSpans(t *testing.T) {
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logged lineLog
	s := New(Config{Backend: backend, MaxConcurrent: 1, Logger: log.New(&logged, "", 0)})
	s.RegisterDataset("store", storeTable())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// request makes one request under request id rid and returns its
	// status, body and Server-Timing header.
	request := func(rid, method, path string, body any) (int, []byte, string, error) {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return 0, nil, "", err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			return 0, nil, "", err
		}
		req.Header.Set(requestIDHeader, rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, "", err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, resp.Header.Get("Server-Timing"), err
	}
	// check holds request rid's Server-Timing header to its access line and
	// returns its spans.
	check := func(rid string, code int, out []byte, timing string, err error) map[string]float64 {
		t.Helper()
		if err != nil || code >= 300 {
			t.Fatalf("%s: status %d, %v: %s", rid, code, err, out)
		}
		got := parseTiming(t, rid, timing)
		total, logTiming := logged.access(t, rid)
		var sum float64
		logSpans := parseTiming(t, rid, logTiming)
		for _, ms := range logSpans {
			sum += ms
		}
		// Each figure is rounded to the microsecond.
		if slack := float64(len(logSpans)+1) * 0.0005; sum > float64(total)/float64(time.Millisecond)+slack {
			t.Errorf("%s: spans %q sum to %.3fms, above the access line's total %s", rid, logTiming, sum, total)
		}
		if !strings.Contains(rid, "stream") && logTiming != timing {
			t.Errorf("%s: Server-Timing %q, access line timing %q", rid, timing, logTiming)
		}
		return got
	}
	send := func(rid, method, path string, body any) ([]byte, map[string]float64) {
		t.Helper()
		code, out, timing, err := request(rid, method, path, body)
		return out, check(rid, code, out, timing, err)
	}
	// has requires exactly the spans want of got.
	has := func(rid string, got map[string]float64, want ...string) {
		t.Helper()
		names := make([]string, 0, len(got))
		for _, name := range []string{"admit", "lock", "resolve", "mw", "brs", "save"} {
			if _, ok := got[name]; ok {
				names = append(names, name)
			}
		}
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Errorf("%s: spans %v, want %v", rid, names, want)
		}
	}
	create := func(rid string) string {
		t.Helper()
		body, got := send(rid, "POST", "/v1/sessions", api.CreateSessionRequest{Dataset: "store", K: 2})
		has(rid, got, "admit", "lock", "save")
		var tree api.Tree
		if err := json.Unmarshal(body, &tree); err != nil {
			t.Fatal(err)
		}
		return "/v1/sessions/" + tree.ID
	}
	drill := func(rid, path string, req api.DrillRequest) string {
		t.Helper()
		body, got := send(rid, "POST", path+"/drill", req)
		var dr api.DrillResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Access == "cache" {
			has(rid, got, "admit", "lock", "save")
		} else {
			has(rid, got, "admit", "lock", "resolve", "brs", "save")
		}
		return dr.Access
	}

	a := create("create")
	if access := drill("miss", a, api.DrillRequest{}); access == "cache" {
		t.Fatalf("the first root drill was served from the cache")
	}
	if access := drill("hit", create("create-b"), api.DrillRequest{}); access != "cache" {
		t.Fatalf("the second session's root drill was served by %q, want cache", access)
	}
	drill("star", a, api.DrillRequest{Column: "Region"})
	_, got := send("collapse", "POST", a+"/collapse", api.DrillRequest{})
	has("collapse", got, "admit", "lock", "save")
	_, got = send("refine", "POST", a+"/refine", api.RefineRequest{}) // an exact node: nothing changes
	has("refine", got, "admit", "lock")
	_, got = send("traditional", "POST", a+"/traditional", api.TraditionalRequest{Column: "Store"})
	has("traditional", got, "admit", "lock")
	_, got = send("tree", "GET", a+"/tree", nil) // no admission
	has("tree", got, "lock")

	_, got = send("stream", "GET", a+"/drill/stream?max_rules=2", nil)
	has("stream", got, "admit", "lock")
	if _, timing := logged.access(t, "stream"); !strings.Contains(timing, "brs;dur=") || !strings.Contains(timing, "save;dur=") {
		t.Errorf("the stream's access line shows %q, want its search and its save", timing)
	}

	// A request queued behind a held slot waits at least as long as the
	// slot is held after it queued.
	release, _, ok := s.adm.acquire(context.Background())
	if !ok {
		t.Fatal("the idle server's slot is taken")
	}
	var (
		code   int
		out    []byte
		timing string
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, out, timing, err = request("queued", "POST", a+"/traditional", api.TraditionalRequest{Column: "Store"})
	}()
	waitQueued(t)
	const hold = 20 * time.Millisecond
	time.Sleep(hold)
	release()
	<-done
	got = check("queued", code, out, timing, err)
	has("queued", got, "admit", "lock")
	if got["admit"] < float64(hold)/float64(time.Millisecond) {
		t.Errorf("queued: admit %.3fms, the slot was held %s after it queued", got["admit"], hold)
	}
}

// TestSpansRaceDrillRefinerStream: a drill, the background refiner it starts
// and a stream share one durable sampled session. Each request fills a record
// of its own while the refiner fills none, so under -race no two goroutines
// touch one record; make race repeats it.
func TestSpansRaceDrillRefinerStream(t *testing.T) {
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newSampledServer(t, Config{Backend: backend, BackgroundRefine: true})
	base := ts.URL + "/v1/sessions/" + createSession(t, ts.URL, sampledCreate()).ID
	var (
		wg      sync.WaitGroup
		timings [2]string
	)
	for i, send := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Post(base+"/drill", "application/json", strings.NewReader("{}"))
		},
		func() (*http.Response, error) { return http.Get(base + "/drill/stream?max_rules=3") },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := send(); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // the header is what is read
				resp.Body.Close()
				timings[i] = resp.Header.Get("Server-Timing")
			}
		}()
	}
	wg.Wait()
	s.WaitRefiners()
	for i, timing := range timings {
		if !strings.HasPrefix(timing, "admit;dur=") {
			t.Errorf("request %d: Server-Timing %q", i, timing)
		}
	}
}
