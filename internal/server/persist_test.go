package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartdrill"
	"smartdrill/api"
)

// newDurableServer builds a test server backed by a DirBackend on dir.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	backend, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = backend
	return newTestServer(t, cfg)
}

// fetchTree returns the raw tree JSON for byte-level comparison.
func fetchTree(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/tree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestartResumesSession: a second server process (same snapshot dir)
// serves a session created and drilled on the first, with a byte-identical
// tree — stable node IDs included.
func TestRestartResumesSession(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newDurableServer(t, dir, Config{})
	tree := createSession(t, ts1.URL, api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 1})
	var dr api.DrillResponse
	if code := doJSON(t, "POST", ts1.URL+"/v1/sessions/"+tree.ID+"/drill",
		api.DrillRequest{Node: tree.Root.ID}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	before := fetchTree(t, ts1.URL, tree.ID)
	ts1.CloseClientConnections() // crash, not graceful shutdown
	ts1.Close()

	s2, ts2 := newDurableServer(t, dir, Config{})
	n, err := s2.RecoverSessions()
	if err != nil {
		t.Fatalf("RecoverSessions: %v", err)
	}
	if n != 1 {
		t.Fatalf("RecoverSessions = %d, want 1", n)
	}
	after := fetchTree(t, ts2.URL, tree.ID)
	if string(before) != string(after) {
		t.Fatalf("tree changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// The resumed session is live, not a read-only fossil: drilling a
	// restored child by its persisted stable ID works.
	child := dr.Node.Children[0]
	var dr2 api.DrillResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/sessions/"+tree.ID+"/drill",
		api.DrillRequest{Node: child.ID}, &dr2); code != http.StatusOK {
		t.Fatalf("drill after restart: status %d", code)
	}
	if dr2.Node.ID != child.ID {
		t.Fatalf("drilled node id %q, want %q", dr2.Node.ID, child.ID)
	}
}

// TestEvictionRehydrates: with a backend configured, LRU eviction demotes
// a session to disk and the next request transparently rehydrates it —
// the pre-backend behavior (404 on evicted, TestSessionEviction) becomes a
// cache miss.
func TestEvictionRehydrates(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Config{MaxSessions: 1})
	first := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 3, Seed: 1})
	before := fetchTree(t, ts.URL, first.ID)
	createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 3, Seed: 2}) // evicts first

	after := fetchTree(t, ts.URL, first.ID) // store miss → rehydrate
	if string(before) != string(after) {
		t.Fatalf("rehydrated tree differs:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestProvisionalRoundTrip is the satellite check: a sampled session whose
// children carry confidence intervals (HasCI) survives evict-to-disk →
// rehydrate with the CIs intact, and RefineNode still upgrades a restored
// provisional node to exact.
func TestProvisionalRoundTrip(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Config{MaxSessions: 1})
	tree := createSession(t, ts.URL, api.CreateSessionRequest{
		Dataset: "store", Seed: 7, SampleMemory: 3000, MinSampleSize: 500,
	})
	var dr api.DrillResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill",
		api.DrillRequest{Node: tree.Root.ID}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	var provisional *api.Node
	for _, c := range dr.Node.Children {
		if !c.Exact && c.CI != nil {
			provisional = c
			break
		}
	}
	if provisional == nil {
		t.Fatalf("sampled drill produced no provisional child: %+v", dr.Node.Children)
	}

	createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 3, Seed: 2}) // evict to disk

	var restored api.Tree
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+tree.ID+"/tree", nil, &restored); code != http.StatusOK {
		t.Fatalf("tree after eviction: status %d", code)
	}
	var again *api.Node
	for _, c := range restored.Root.Children {
		if c.ID == provisional.ID {
			again = c
		}
	}
	if again == nil {
		t.Fatalf("provisional node %s lost in round-trip", provisional.ID)
	}
	if again.Exact || again.CI == nil || *again.CI != *provisional.CI || again.Count != provisional.Count {
		t.Fatalf("provisional state mangled: before %+v CI %v, after %+v CI %v",
			provisional, provisional.CI, again, again.CI)
	}

	// The restored provisional node still refines to exact.
	var ref api.RefineResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/refine",
		api.RefineRequest{Node: provisional.ID}, &ref); code != http.StatusOK {
		t.Fatalf("refine after rehydrate: status %d", code)
	}
	if !ref.Changed || !ref.Node.Exact || ref.Node.CI != nil {
		t.Fatalf("refine on restored node: %+v", ref)
	}
}

// TestDeleteRemovesSnapshot: delete reaches the backend too, so a deleted
// session cannot resurrect through rehydration — even after eviction.
func TestDeleteRemovesSnapshot(t *testing.T) {
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Backend: backend, MaxSessions: 1})
	first := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: 1})
	createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: 2}) // evict first to disk

	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+first.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete evicted session: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+first.ID+"/tree", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: status %d", code)
	}
	if _, err := backend.Load(first.ID); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("snapshot survived delete: %v", err)
	}
}

// TestPersistFailureDegradesDurabilityNotAvailability: a failing backend
// never fails requests — the mutation succeeds in memory, the failure is
// counted, and the next successful write-through carries the state.
func TestPersistFailureDegradesDurabilityNotAvailability(t *testing.T) {
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	failing := true
	backend.Inject = func(op string) error {
		if op == "save" && failing {
			return errors.New("injected disk failure")
		}
		return nil
	}
	s := New(Config{Backend: backend, Logger: log.New(io.Discard, "", 0)})
	s.RegisterDataset("store", storeTable())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", Seed: 1})
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/drill",
		api.DrillRequest{Node: tree.Root.ID}, nil); code != http.StatusOK {
		t.Fatalf("drill with failing backend: status %d", code)
	}
	if s.PersistFailures() == 0 {
		t.Fatal("failed saves were not counted")
	}
	if _, err := backend.Load(tree.ID); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("expected no snapshot while backend failing, got %v", err)
	}

	// Disk heals: the next mutation writes through the full current state.
	failing = false
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+tree.ID+"/collapse",
		api.DrillRequest{}, nil); code != http.StatusOK {
		t.Fatalf("collapse: status %d", code)
	}
	data, err := backend.Load(tree.ID)
	if err != nil {
		t.Fatalf("snapshot missing after heal: %v", err)
	}
	var rec sessionRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("corrupt healed snapshot: %v", err)
	}
	if rec.ID != tree.ID || rec.Dataset != "store" {
		t.Fatalf("healed snapshot record: %+v", rec)
	}
}

// TestSnapshotIDValidation: ids arrive from URL paths, so traversal-shaped
// ids must never reach the filesystem.
func TestSnapshotIDValidation(t *testing.T) {
	for _, id := range []string{"", "../etc/passwd", "a/b", "a.b", "x y", string(make([]byte, 129))} {
		if validSnapshotID(id) {
			t.Errorf("validSnapshotID(%q) = true", id)
		}
	}
	for _, id := range []string{"abc123", "A-b_9"} {
		if !validSnapshotID(id) {
			t.Errorf("validSnapshotID(%q) = false", id)
		}
	}
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Load("../escape"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("traversal id load: %v", err)
	}
}

// questionMarkTable holds the literal value "?" (the UCI census
// missing-value marker) as column A's dominant value.
func questionMarkTable() *smartdrill.Table {
	b, err := smartdrill.NewTableBuilder([]string{"A", "B", "C"}, nil)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 300; i++ {
		a := "?"
		if i%3 == 0 {
			a = string(rune('p' + i%5))
		}
		b.MustAddRow([]string{a, string(rune('a' + i%4)), string(rune('x' + i%2))})
	}
	return b.Build()
}

// TestQuestionMarkValueSurvivesRestart: regression for the snapshot-v1
// star encoding, which wrote wildcards as the string "?" — after a
// kill/restart a node whose rule instantiates a cell holding a literal "?"
// came back as a wildcard, so the same node ID meant a different rule.
func TestQuestionMarkValueSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Config{})
	s1.RegisterDataset("qm", questionMarkTable())
	tree := createSession(t, ts1.URL, api.CreateSessionRequest{Dataset: "qm", K: 3, Seed: 1})
	var dr api.DrillResponse
	if code := doJSON(t, "POST", ts1.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}, &dr); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	var target *api.Node
	for _, c := range dr.Node.Children {
		if v, ok := c.Rule["A"]; ok && v == "?" {
			target = c
		}
	}
	if target == nil {
		t.Fatalf("root drill surfaced no rule with A=\"?\": %+v", dr.Node.Children)
	}
	before := fetchTree(t, ts1.URL, tree.ID)
	ts1.CloseClientConnections() // crash, not graceful shutdown
	ts1.Close()

	s2, ts2 := newDurableServer(t, dir, Config{})
	s2.RegisterDataset("qm", questionMarkTable())
	if n, err := s2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v; want 1", n, err)
	}
	if after := fetchTree(t, ts2.URL, tree.ID); string(before) != string(after) {
		t.Fatalf("tree changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	// The restored node still means (A="?"): its children instantiate A.
	var dr2 api.DrillResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{Node: target.ID}, &dr2); code != http.StatusOK {
		t.Fatalf("drill after restart: status %d", code)
	}
	if dr2.Node.Rule["A"] != "?" || dr2.Node.Count != target.Count {
		t.Fatalf("node %s after restart: rule %v count %v, want A=\"?\" count %v", target.ID, dr2.Node.Rule, dr2.Node.Count, target.Count)
	}
	for _, c := range dr2.Node.Children {
		if c.Rule["A"] != "?" {
			t.Fatalf("child %v of the restored (A=\"?\") node does not instantiate A", c.Rule)
		}
	}
}

// TestForeignVersionSnapshotsNeverLoad: the record's version field means
// something — a v1 record (stars as "?") and a record from a future format
// are both skipped by RecoverSessions, counted as orphaned, and 404 on
// lookup instead of being parsed as the current format.
func TestForeignVersionSnapshotsNeverLoad(t *testing.T) {
	dir := t.TempDir()
	var logs bytes.Buffer
	backend, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: backend, Logger: log.New(&logs, "", 0)})
	s.RegisterDataset("store", storeTable())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A current-format record to copy from: valid in every respect but the
	// version stamp.
	tree := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 3, Seed: 1})
	data, err := backend.Load(tree.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if string(rec["version"]) != "2" {
		t.Fatalf("server wrote record version %s, want 2", rec["version"])
	}
	for id, version := range map[string]string{"aaaa0001": "1", "aaaa0099": "99"} {
		rec["version"] = json.RawMessage(version)
		rec["id"] = json.RawMessage(`"` + id + `"`)
		forged, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Save(id, forged); err != nil {
			t.Fatal(err)
		}
	}

	if n, err := s.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("RecoverSessions = %d, %v; want only the v2 record resumable", n, err)
	}
	if !strings.Contains(logs.String(), "1 resumable, 2 orphaned") {
		t.Fatalf("recovery log does not count the foreign-version records as orphaned:\n%s", logs.String())
	}
	for _, id := range []string{"aaaa0001", "aaaa0099"} {
		var e api.ErrorEnvelope
		if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &e); code != http.StatusNotFound {
			t.Fatalf("session %s (foreign snapshot version): status %d, want 404", id, code)
		}
		if e.Error == nil || e.Error.Code != api.ErrNotFound {
			t.Fatalf("session %s: error %+v, want not_found", id, e.Error)
		}
	}
	if !strings.Contains(logs.String(), "format version 99") || !strings.Contains(logs.String(), "format version 1,") {
		t.Fatalf("lookups of foreign-version records were not logged with their version:\n%s", logs.String())
	}
}

// directJSON drives the handler in-process (no network) under ctx and
// returns the recorded response.
func directJSON(t *testing.T, s *Server, ctx context.Context, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	serveDirect(s, ctx, method, target, data, rec)
	return rec
}

// TestFailedRedrillPersistsCollapse: re-drilling an expanded node
// collapses it before the search runs, so a re-drill that is canceled (or
// a stream that finds no rule) has still mutated the tree and must write
// through — otherwise a restart brings the old children back.
func TestFailedRedrillPersistsCollapse(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()
	cases := []struct {
		name, method, route string
		body                any
		status              int
	}{
		{"batch", "POST", "/drill", api.DrillRequest{}, api.StatusCanceled},
		{"stream", "GET", "/drill/stream", nil, http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, _ := newDurableServer(t, dir, Config{})
			var tree api.Tree
			rec := directJSON(t, s1, live, "POST", "/v1/sessions", api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 1})
			if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
				t.Fatal(err)
			}
			if rec := directJSON(t, s1, live, "POST", "/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{}); rec.Code != http.StatusOK {
				t.Fatalf("drill: status %d", rec.Code)
			}
			if rec := directJSON(t, s1, dead, c.method, "/v1/sessions/"+tree.ID+c.route, c.body); rec.Code != c.status {
				t.Fatalf("re-drill: status %d, want %d: %s", rec.Code, c.status, rec.Body.String())
			}
			before := directJSON(t, s1, live, "GET", "/v1/sessions/"+tree.ID+"/tree", nil).Body.String()
			var inMemory api.Tree
			if err := json.Unmarshal([]byte(before), &inMemory); err != nil {
				t.Fatal(err)
			}
			if len(inMemory.Root.Children) != 0 {
				t.Fatalf("failed re-drill left %d children in memory; the test's premise (collapse-and-replace) no longer holds", len(inMemory.Root.Children))
			}

			s2, _ := newDurableServer(t, dir, Config{}) // restart on the same directory
			after := directJSON(t, s2, live, "GET", "/v1/sessions/"+tree.ID+"/tree", nil).Body.String()
			if before != after {
				t.Fatalf("tree changed across restart:\nin memory: %s\nrehydrated: %s", before, after)
			}
		})
	}
}

// TestDeleteWinsOverLateWriteThrough: a request or refiner still holding
// the session when DELETE lands writes through afterwards; the tombstone
// drops that write, so the deleted id neither leaves a snapshot nor
// rehydrates.
func TestDeleteWinsOverLateWriteThrough(t *testing.T) {
	gone := func(t *testing.T, backend *DirBackend, base, id string) {
		t.Helper()
		if code := doJSON(t, "GET", base+"/v1/sessions/"+id+"/tree", nil, nil); code != http.StatusNotFound {
			t.Fatalf("deleted session resurrected: status %d", code)
		}
		if _, err := backend.Load(id); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("snapshot re-created after delete: %v", err)
		}
	}

	// Deterministic: the DELETE fires synchronously inside the Flush of a
	// stream's first rule event, before the stream's own write-through.
	t.Run("stream", func(t *testing.T) {
		backend, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Config{Backend: backend})
		id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "store", K: 4, Seed: 1}).ID
		cw := &cancelWriter{hookAt: 2, hook: func() {
			if rec := directJSON(t, s, context.Background(), "DELETE", "/v1/sessions/"+id, nil); rec.Code != http.StatusOK {
				t.Errorf("delete during stream: status %d", rec.Code)
			}
		}}
		serveDirect(s, context.Background(), "GET", "/v1/sessions/"+id+"/drill/stream?max_rules=2", nil, cw)
		if !strings.Contains(cw.body.String(), "event: "+api.EventDone) {
			t.Fatalf("stream did not finish:\n%s", cw.body.String())
		}
		gone(t, backend, ts.URL, id)
	})

	// Concurrent: the background refiner's exact passes race the DELETE
	// (the -race half of the check).
	t.Run("refiner", func(t *testing.T) {
		backend, err := NewDirBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, ts := newSampledServer(t, Config{Backend: backend, BackgroundRefine: true})
		id := createSession(t, ts.URL, sampledCreate()).ID
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/drill", api.DrillRequest{}, nil); code != http.StatusOK {
			t.Fatalf("drill: status %d", code)
		}
		if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("delete: status %d", code)
		}
		s.WaitRefiners()
		gone(t, backend, ts.URL, id)
	})
}
