package server

// Tests for what the session door guarantees by construction: the session
// lock cannot be left held, and the record on disk is level with memory
// whenever a response has been written — whichever route wrote it.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// TestPanicInsideSessionDoesNotWedge: a panic under the session lock —
// an engine bug the recovery middleware turns into a 500 — must release
// the lock and the admission slot, or that session never answers again and
// shutdown hangs on its stuck requests.
func TestPanicInsideSessionDoesNotWedge(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("POST /boom/{id}", s.withRecovery(s.withAdmission(false, func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.lookupSession(w, r)
		if !ok {
			return
		}
		sess.do(context.Background(), func(*smartdrill.Engine) { panic("engine bug") })
	})))
	ts := httptest.NewServer(mux) // closed by the test's last step, which is about Close

	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 1}).ID
	if code := doJSON(t, "POST", ts.URL+"/boom/"+id, nil, nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}

	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get(ts.URL + "/v1/sessions/" + id + "/tree")
	if err != nil {
		t.Fatalf("tree after a recovered panic did not answer within 1s: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree after a recovered panic: status %d", resp.StatusCode)
	}
	if n := len(s.adm.slots); n != 0 {
		t.Fatalf("admission slots in use after the panic: %d", n)
	}
	done := make(chan struct{})
	go func() {
		ts.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hangs after a recovered panic")
	}
}

// TestRequestBodyLimit: request bodies are capped, over-limit is an
// ordinary bad_request, and ordinary bodies are unaffected.
func TestRequestBodyLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store"}).ID
	post := func(target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		serveDirect(s, context.Background(), "POST", target, body, rec)
		return rec
	}

	// Each body is valid JSON for its route except for its size, so only
	// the cap can be what rejects it.
	for target, field := range map[string]string{
		"/v1/sessions":                     "dataset",
		"/v1/sessions/" + id + "/drill":    "node",
		"/v1/sessions/" + id + "/collapse": "node",
	} {
		rec := post(target, []byte(`{"`+field+`":"`+strings.Repeat("a", 2<<20)+`"}`))
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: 2 MiB body: undecodable response %q", target, rec.Body.String())
		}
		if rec.Code != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.ErrBadRequest {
			t.Fatalf("%s: 2 MiB body: status %d envelope %+v, want 400 %s", target, rec.Code, env.Error, api.ErrBadRequest)
		}
		if !strings.Contains(env.Error.Message, "too large") {
			t.Fatalf("%s: 2 MiB body rejected for another reason: %s", target, env.Error.Message)
		}
	}

	padded := []byte(`{"dataset":"store"` + strings.Repeat(" ", 1<<10) + `}`)
	if rec := post("/v1/sessions", padded); rec.Code != http.StatusCreated {
		t.Fatalf("1 KiB body: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDiskMatchesMemoryAfterEveryResponse walks one durable session through
// every route — including the ones that mutate on their way to failing and
// the ones that look like mutations but change nothing — and after each
// response checks (1) how many saves it cost, (2) that a server restarted
// on the same directory serves the very tree this one holds, and (3) that
// the restarted server's rehydration wrote nothing back. It then breaks
// the disk under a mutation and checks that the next request of each kind
// — not just the next mutation — lands the missed snapshot.
func TestDiskMatchesMemoryAfterEveryResponse(t *testing.T) {
	dir := t.TempDir()
	backend, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	var saves atomic.Int64
	var failing atomic.Bool
	backend.Inject = func(op string) error {
		if op != "save" {
			return nil
		}
		saves.Add(1)
		if failing.Load() {
			return errors.New("injected disk failure")
		}
		return nil
	}
	s, _ := newSampledServer(t, Config{Backend: backend})
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()

	var id string
	// onDisk restarts on the same directory and returns the tree served
	// from the record alone.
	onDisk := func(t *testing.T) string {
		t.Helper()
		b2, err := NewDirBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		var resaved atomic.Int64
		b2.Inject = func(op string) error {
			if op == "save" {
				resaved.Add(1)
			}
			return nil
		}
		s2, _ := newSampledServer(t, Config{Backend: b2})
		rec := directJSON(t, s2, live, "GET", "/v1/sessions/"+id+"/tree", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("restarted server: tree status %d: %s", rec.Code, rec.Body.String())
		}
		if n := resaved.Load(); n != 0 {
			t.Fatalf("a rehydrated session started dirty: %d saves on its first read", n)
		}
		return rec.Body.String()
	}
	// step issues one request and checks its status, its save count
	// (wantSaves < 0: at least one) and that disk ends level with memory.
	step := func(name string, ctx context.Context, method, route string, body any, wantStatus, wantSaves int) *httptest.ResponseRecorder {
		t.Helper()
		before := saves.Load()
		target := "/v1/sessions"
		if id != "" {
			target += "/" + id + route
		}
		rec := directJSON(t, s, ctx, method, target, body)
		if rec.Code != wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", name, rec.Code, wantStatus, rec.Body.String())
		}
		if id == "" {
			var tree api.Tree
			if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
				t.Fatal(err)
			}
			id = tree.ID
		}
		switch got := int(saves.Load() - before); {
		case wantSaves < 0 && got == 0:
			t.Fatalf("%s: changed the tree without a save", name)
		case wantSaves >= 0 && got != wantSaves:
			t.Fatalf("%s: %d saves, want %d", name, got, wantSaves)
		}
		before = saves.Load()
		inMemory := directJSON(t, s, live, "GET", "/v1/sessions/"+id+"/tree", nil).Body.String()
		if got := saves.Load() - before; got != 0 {
			t.Fatalf("%s: the tree read after it cost %d saves; the response went out ahead of its write-through", name, got)
		}
		if disk := onDisk(t); disk != inMemory {
			t.Fatalf("%s: disk is not level with memory\n--- memory\n%s\n--- disk\n%s", name, inMemory, disk)
		}
		return rec
	}
	drillResponse := func(rec *httptest.ResponseRecorder) api.DrillResponse {
		t.Helper()
		var dr api.DrillResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
			t.Fatal(err)
		}
		return dr
	}

	step("create", live, "POST", "", sampledCreate(), http.StatusCreated, 1)
	step("tree", live, "GET", "/tree", nil, http.StatusOK, 0)
	root := drillResponse(step("drill root", live, "POST", "/drill", api.DrillRequest{}, http.StatusOK, 1)).Node
	// The lightest rules come last and leave the most columns to drill on.
	if len(root.Children) < 2 {
		t.Fatalf("the root drill returned %d children; the test needs two", len(root.Children))
	}
	last := root.Children[len(root.Children)-2:]
	if last[0].Exact || last[1].Exact {
		t.Fatal("the sampled root drill returned exact children; the test needs provisional ones")
	}
	first, second := last[1].ID, last[0].ID
	step("refine", live, "POST", "/refine", api.RefineRequest{Node: first}, http.StatusOK, 1)
	step("refine, nothing to change", live, "POST", "/refine", api.RefineRequest{Node: first}, http.StatusOK, 0)
	step("traditional", live, "POST", "/traditional", api.TraditionalRequest{Column: censusTable().ColumnNames()[0]}, http.StatusOK, 0)
	step("collapse of a leaf", live, "POST", "/collapse", api.DrillRequest{Node: second}, http.StatusOK, 0)
	step("drill of an unknown node", live, "POST", "/drill", api.DrillRequest{Node: "n9999"}, http.StatusNotFound, 0)
	step("drill child", live, "POST", "/drill", api.DrillRequest{Node: first}, http.StatusOK, 1)
	step("canceled drill of a leaf", dead, "POST", "/drill", api.DrillRequest{Node: second}, api.StatusCanceled, 0)
	// A re-drill collapses the node before it searches, so failing after
	// that point has still changed the tree.
	step("failed re-drill", dead, "POST", "/drill", api.DrillRequest{Node: first}, api.StatusCanceled, 1)
	step("stream", live, "GET", "/drill/stream?node="+second+"&max_rules=2", nil, http.StatusOK, -1)
	step("zero-rule stream of a leaf", dead, "GET", "/drill/stream?node="+first, nil, http.StatusOK, 0)
	step("zero-rule stream of an expanded node", dead, "GET", "/drill/stream?node="+second, nil, http.StatusOK, 1)
	star := censusTable().ColumnNames()[len(censusTable().ColumnNames())-1]
	step("star drill", live, "POST", "/drill", api.DrillRequest{Column: star}, http.StatusOK, 1)
	step("collapse", live, "POST", "/collapse", api.DrillRequest{}, http.StatusOK, 1)

	// Flaky disk: the mutation succeeds in memory, its save fails, and the
	// next request — whatever it is — brings disk level again.
	healers := []struct {
		name, method, route string
		body                func(leaf string) any
		status              int
	}{
		{"tree", "GET", "/tree", func(string) any { return nil }, http.StatusOK},
		{"traditional", "POST", "/traditional", func(string) any { return api.TraditionalRequest{Column: star} }, http.StatusOK},
		{"refine of an exact node", "POST", "/refine", func(string) any { return api.RefineRequest{} }, http.StatusOK},
		{"drill of an unknown node", "POST", "/drill", func(string) any { return api.DrillRequest{Node: "n9999"} }, http.StatusNotFound},
		{"collapse of a leaf", "POST", "/collapse", func(leaf string) any { return api.DrillRequest{Node: leaf} }, http.StatusOK},
	}
	for _, h := range healers {
		failing.Store(true)
		failures := s.PersistFailures()
		rec := directJSON(t, s, live, "POST", "/v1/sessions/"+id+"/drill", api.DrillRequest{})
		if rec.Code != http.StatusOK {
			t.Fatalf("drill on a failing disk: status %d", rec.Code)
		}
		if s.PersistFailures() == failures {
			t.Fatal("the failed save was not counted")
		}
		failing.Store(false)
		leaf := drillResponse(rec).Node.Children[0].ID
		step("after a failed save, "+h.name, live, h.method, h.route, h.body(leaf), h.status, 1)
		step("collapse", live, "POST", "/collapse", api.DrillRequest{}, http.StatusOK, 1)
	}
}
