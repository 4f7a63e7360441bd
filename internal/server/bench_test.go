package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/internal/datagen"
)

// What a served request costs once its search is free, on the benchmark's
// own table (bench/drillload: census, 100 000 rows × 7 columns, generator
// seed 7) at the default K 3: the whole of Handler().ServeHTTP into a
// recorder — request decode, the session's door, the answer-cache hit and
// its clone, encodeNode, the encoder, the access-log line — and none of the
// network. Each reports ns/op, B/op and the body's bytes.
//
//	go test -run '^$' -bench 'Serve|EncodeTree' -benchtime 20000x ./internal/server/

var benchCensus = sync.OnceValue(func() *smartdrill.Table {
	return datagen.CensusProjected(100_000, 7, 7)
})

// memBackend is a SessionBackend that keeps its records in a map: the
// durable path's serialisation without a disk's fsync.
type memBackend struct {
	mu      sync.Mutex
	records map[string][]byte
	saves   int
}

func newMemBackend() *memBackend { return &memBackend{records: make(map[string][]byte)} }

func (b *memBackend) Save(id string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.records[id] = bytes.Clone(data)
	b.saves++
	return nil
}

func (b *memBackend) Load(id string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.records[id]
	if !ok {
		return nil, ErrNoSnapshot
	}
	return data, nil
}

func (b *memBackend) Delete(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.records[id]; !ok {
		return ErrNoSnapshot
	}
	delete(b.records, id)
	return nil
}

func (b *memBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.records))
	for id := range b.records {
		ids = append(ids, id)
	}
	return ids, nil
}

// record drives one request through s's handler into a recorder.
func record(s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	serveDirect(s, context.Background(), method, target, body, rec)
	return rec
}

// benchSession starts a server on census-100k and drills a default session
// to the 13-node base tree (root, 3 children, 9 grandchildren), which leaves
// every expansion it holds in the dataset's answer cache. It returns the
// server, the session's id and the first child's id.
func benchSession(b *testing.B, backend SessionBackend) (s *Server, id, child string) {
	b.Helper()
	s = New(Config{Logger: log.New(io.Discard, "", 0), Backend: backend})
	s.RegisterDataset("census", benchCensus())
	rec := record(s, "POST", "/v1/sessions", []byte(`{"dataset":"census"}`))
	var tree api.Tree
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil || rec.Code != http.StatusCreated {
		b.Fatalf("create: status %d, body %s", rec.Code, rec.Body)
	}
	route := "/v1/sessions/" + tree.ID
	drill := func(node string) *api.Node {
		rec := record(s, "POST", route+"/drill", []byte(`{"node":"`+node+`"}`))
		var dr api.DrillResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || rec.Code != http.StatusOK {
			b.Fatalf("drill %s: status %d, body %s", node, rec.Code, rec.Body)
		}
		return dr.Node
	}
	root := drill(tree.Root.ID)
	nodes := 1
	for _, c := range root.Children {
		nodes += 1 + len(drill(c.ID).Children)
	}
	if nodes != 13 {
		b.Fatalf("base tree has %d nodes, want 13", nodes)
	}
	return s, tree.ID, root.Children[0].ID
}

// benchServe times one request shape, replayed b.N times.
func benchServe(b *testing.B, s *Server, method, target string, body []byte) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var rec *httptest.ResponseRecorder
	for i := 0; i < b.N; i++ {
		rec = record(s, method, target, body)
	}
	b.StopTimer()
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d, body %s", method, target, rec.Code, rec.Body)
	}
	b.ReportMetric(float64(rec.Body.Len()), "body-bytes")
}

// childHit re-drills an expanded child: the drill collapses it, finds its
// expansion in the answer cache and answers the node with its three
// children — the response an analyst's click on a warm server gets.
func childHit(b *testing.B, backend SessionBackend) {
	s, id, child := benchSession(b, backend)
	route, body := "/v1/sessions/"+id, []byte(`{"node":"`+child+`"}`)
	var dr api.DrillResponse
	if err := json.Unmarshal(record(s, "POST", route+"/drill", body).Body.Bytes(), &dr); err != nil || dr.Access != "cache" {
		b.Fatalf("re-drill of %s is not a cache hit: access %q, err %v", child, dr.Access, err)
	}
	benchServe(b, s, "POST", route+"/drill", body)
}

func BenchmarkServeDrillHit(b *testing.B) { childHit(b, nil) }

// BenchmarkServeDrillHitDurable is the same hit with a backend behind the
// session: each one also snapshots the 13-node tree inside the door, wraps
// it in its record and hands it to Save.
func BenchmarkServeDrillHitDurable(b *testing.B) { childHit(b, newMemBackend()) }

func BenchmarkServeTree(b *testing.B) {
	s, id, _ := benchSession(b, nil)
	benchServe(b, s, "GET", "/v1/sessions/"+id+"/tree", nil)
}

// BenchmarkEncodeTree is ServeTree's last step alone: the 13-node tree,
// already an api.Tree, through encodeJSON.
func BenchmarkEncodeTree(b *testing.B) {
	s, id, _ := benchSession(b, nil)
	sess, _ := s.store.get(id)
	var tree *api.Tree
	sess.do(context.Background(), func(e *smartdrill.Engine) { tree = encodeTree(sess, e) })
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if body, err = encodeJSON(tree); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(body)), "body-bytes")
}
