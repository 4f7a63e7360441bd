package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"os"
	"testing"

	"smartdrill"
	"smartdrill/api"
)

// recordFixtureID is the session testdata/record-v2.json belongs to: a
// backend record as the build before this one wrote it (its tree serialised
// indented, then compacted into the record), of a K 3 session on the bundled
// store table drilled to 13 nodes — root, its three rules, each drilled.
const recordFixtureID = "d8a8a6ecd12c0a3859c1d042cae0edb2"

func recordFixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/record-v2.json")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// indentedJSON returns data's indented form.
func indentedJSON(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recordServer is a server on the store table whose sessions persist to the
// returned in-memory backend.
func recordServer() (*Server, *memBackend) {
	backend := newMemBackend()
	s := New(Config{Backend: backend, Logger: log.New(io.Discard, "", 0)})
	s.RegisterDataset("store", storeTable())
	return s, backend
}

// snapshotOf returns the session's tree as the door's write-through would
// serialise it, and its rendering.
func snapshotOf(tb testing.TB, sess *session) (snap []byte, rendered string) {
	tb.Helper()
	sess.do(context.Background(), func(e *smartdrill.Engine) {
		var buf bytes.Buffer
		if err := e.SaveState(&buf); err != nil {
			tb.Fatal(err)
		}
		snap, rendered = buf.Bytes(), e.Render()
	})
	return snap, rendered
}

// TestRehydrateReadsRecordsOfEitherForm: the committed record, and the same
// record indented, rehydrate to the tree the same drills build on a live
// session — rendering and snapshot byte for byte — under the ids the
// analyst was shown.
func TestRehydrateReadsRecordsOfEitherForm(t *testing.T) {
	fixture := recordFixture(t)
	var rec sessionRecord
	if err := json.Unmarshal(fixture, &rec); err != nil || rec.Version != recordVersion || rec.ID != recordFixtureID {
		t.Fatalf("fixture: version %d (this build reads %d), id %q, err %v", rec.Version, recordVersion, rec.ID, err)
	}

	s, backend := recordServer()
	live := directJSON(t, s, t.Context(), "POST", "/v1/sessions", rec.Request)
	var tree api.Tree
	if err := json.Unmarshal(live.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n1", "n2", "n3", "n4"} {
		if rec := directJSON(t, s, t.Context(), "POST", "/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{Node: node}); rec.Code != 200 {
			t.Fatalf("drill %s: status %d", node, rec.Code)
		}
	}
	liveSess, _ := s.store.get(tree.ID)
	wantSnap, wantRendered := snapshotOf(t, liveSess)
	var compactTree bytes.Buffer
	if err := json.Compact(&compactTree, rec.Tree); err != nil {
		t.Fatal(err)
	}
	if string(wantSnap) != compactTree.String()+"\n" {
		t.Fatalf("the live tree's snapshot is not the fixture's tree:\n%s\nfixture\n%s", wantSnap, rec.Tree)
	}

	for form, data := range map[string][]byte{"as written": fixture, "indented": indentedJSON(t, fixture)} {
		if err := backend.Save(recordFixtureID, data); err != nil {
			t.Fatal(err)
		}
		sess, ok := s.rehydrate(recordFixtureID)
		if !ok {
			t.Fatalf("record %s did not rehydrate", form)
		}
		snap, rendered := snapshotOf(t, sess)
		if rendered != wantRendered {
			t.Errorf("record %s renders\n%s\nwant\n%s", form, rendered, wantRendered)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("record %s snapshots as\n%s\nwant\n%s", form, snap, wantSnap)
		}
		// The analyst's addresses survive: n13 is the last grandchild.
		if rec := directJSON(t, s, t.Context(), "POST", "/v1/sessions/"+recordFixtureID+"/refine", api.RefineRequest{Node: "n13"}); rec.Code != 200 {
			t.Errorf("record %s: refine of n13 answered %d: %s", form, rec.Code, rec.Body)
		}
		s.store.remove(recordFixtureID)
	}
}

// FuzzLoadRecord: whatever bytes a backend hands back for a session id,
// loading and rehydrating them never panics, and a record that does
// rehydrate is written through — by the session's own door, the first time
// its tree's revision moves — as a record that rehydrates to the same tree.
func FuzzLoadRecord(f *testing.F) {
	fixture := recordFixture(f)
	f.Add(fixture)
	f.Add(indentedJSON(f, fixture))
	// The record a server would write around `smartdrill save`'s file.
	state, err := os.ReadFile("../drill/testdata/state-indented.json")
	if err != nil {
		f.Fatal(err)
	}
	wrapped, err := json.Marshal(sessionRecord{Version: recordVersion, Dataset: "store", Tree: state})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped)
	f.Add([]byte(`{"version":1,"dataset":"store","tree":{}}`))
	f.Add([]byte(`{"version":2,"dataset":"store","request":{"dataset":"store","k":101}}`))
	f.Add([]byte(`{"version":2,"id":"someone-else","dataset":"store"}`))
	f.Add([]byte(`{"version":2,"dataset":"store","request":{"sample_memory":3000,"min_sample_size":500,"sum":"Sales"}}`))

	s, backend := recordServer()
	const id = recordFixtureID // the id the seeded records claim
	f.Fuzz(func(t *testing.T, data []byte) {
		s.store.remove(id)
		backend.Save(id, data) //nolint:errcheck // a map write
		if _, err := s.loadRecord(id); err != nil {
			if _, ok := s.rehydrate(id); ok {
				t.Fatalf("rehydrated a record loadRecord refuses: %v", err)
			}
			return
		}
		sess, ok := s.rehydrate(id)
		if !ok {
			return // decodable, but not a session of this server's datasets
		}
		snap, rendered := snapshotOf(t, sess)
		saves := backend.saves

		// Reloading its own snapshot moves the revision and nothing else, so
		// the door saves.
		sess.do(context.Background(), func(e *smartdrill.Engine) {
			if err := e.LoadState(bytes.NewReader(snap)); err != nil {
				t.Fatalf("a session refuses its own snapshot: %v", err)
			}
		})
		if backend.saves != saves+1 {
			t.Fatalf("the door saved %d times, want once", backend.saves-saves)
		}
		resaved, _ := backend.Load(id)
		s.store.remove(id)
		again, ok := s.rehydrate(id)
		if !ok {
			t.Fatalf("the re-saved record does not rehydrate:\n%s", resaved)
		}
		if gotSnap, gotRendered := snapshotOf(t, again); !bytes.Equal(gotSnap, snap) || gotRendered != rendered {
			t.Fatalf("the re-saved record rehydrates to another tree:\n%s\nwas\n%s", gotSnap, snap)
		}
		if n := s.PersistFailures(); n != 0 {
			t.Fatalf("%d snapshot writes failed", n)
		}
	})
}
