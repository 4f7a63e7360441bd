package server

// Cancellation contract: an abandoned request's context rides into the
// BRS search and stops it between counting passes, without poisoning the
// session. The stream test cancels deterministically — the response
// writer's Flush hook fires the cancel synchronously while the handler is
// emitting the first rule, so the search provably aborts before finding a
// second one.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartdrill"
	"smartdrill/api"
)

// cancelWriter is an http.ResponseWriter + Flusher whose Flush invokes a
// hook synchronously on a chosen flush ordinal. Flush #1 is the handler's
// header flush; flush #2 accompanies the first SSE rule event.
type cancelWriter struct {
	header  http.Header
	body    bytes.Buffer
	status  int
	flushes int
	hookAt  int
	hook    func()
}

func (cw *cancelWriter) Header() http.Header {
	if cw.header == nil {
		cw.header = make(http.Header)
	}
	return cw.header
}

func (cw *cancelWriter) WriteHeader(status int) { cw.status = status }

func (cw *cancelWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	return cw.body.Write(p)
}

func (cw *cancelWriter) Flush() {
	cw.flushes++
	if cw.flushes == cw.hookAt && cw.hook != nil {
		cw.hook()
	}
}

// serveDirect drives the server's handler synchronously with a custom
// writer and context — no network, so the test owns the request lifecycle.
func serveDirect(s *Server, ctx context.Context, method, target string, body []byte, w http.ResponseWriter) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd).WithContext(ctx)
	s.Handler().ServeHTTP(w, req)
}

// sseEventsFrom parses SSE events out of a recorded response body.
func sseEventsFrom(t *testing.T, body string) []sseEvent {
	t.Helper()
	return readSSE(t, strings.NewReader(body))
}

func TestStreamCancelStopsSearch(t *testing.T) {
	cfg := Config{Logger: log.New(io.Discard, "", 0)}
	s := New(cfg)
	s.RegisterDataset("census", censusTable())

	create := func() string {
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(api.CreateSessionRequest{Dataset: "census", K: 4, Seed: 3})
		serveDirect(s, context.Background(), "POST", "/v1/sessions", body, rec)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
		}
		var tree api.Tree
		if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
			t.Fatal(err)
		}
		return tree.ID
	}

	// Control: an uncanceled stream on this dataset finds at least three
	// rules, so a canceled run stopping at one proves the abort.
	controlID := create()
	ctl := httptest.NewRecorder()
	serveDirect(s, context.Background(), "GET",
		"/v1/sessions/"+controlID+"/drill/stream?budget_ms=30000&max_rules=3", nil, ctl)
	ctlRules := 0
	for _, ev := range sseEventsFrom(t, ctl.Body.String()) {
		if ev.event == "rule" {
			ctlRules++
		}
	}
	if ctlRules < 3 {
		t.Fatalf("control stream found %d rules; dataset too small for the cancel test", ctlRules)
	}

	// Canceled run: the cancel fires synchronously inside the Flush that
	// emits the first rule event, so the BRS search observes it at its
	// next pass boundary — deterministically before a second rule exists.
	id := create()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cw := &cancelWriter{hookAt: 2, hook: cancel}
	serveDirect(s, ctx, "GET",
		"/v1/sessions/"+id+"/drill/stream?budget_ms=30000", nil, cw)

	events := sseEventsFrom(t, cw.body.String())
	rules := 0
	var done *api.DoneEvent
	for _, ev := range events {
		switch ev.event {
		case "rule":
			rules++
		case "done":
			done = &api.DoneEvent{}
			if err := json.Unmarshal([]byte(ev.data), done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rules != 1 {
		t.Fatalf("canceled stream emitted %d rules, want exactly 1", rules)
	}
	if done == nil {
		t.Fatal("canceled stream ended without a done event")
	}
	if done.ErrorCode != api.ErrCanceled {
		t.Fatalf("done error code %q, want %q (error %q)", done.ErrorCode, api.ErrCanceled, done.Error)
	}
	if done.Rules != 1 || done.Refined != 0 {
		t.Fatalf("done reports rules %d refined %d, want 1/0", done.Rules, done.Refined)
	}

	// The aborted search's work is visible in the session's accumulated
	// SearchStats — and strictly smaller than the control session's.
	sess, ok := s.store.get(id)
	if !ok {
		t.Fatal("canceled session vanished")
	}
	var canceledStats smartdrill.SearchStats
	sess.do(context.Background(), func(e *smartdrill.Engine) { canceledStats = e.TotalSearchStats() })
	// Total reads, whichever access path served them: on this table the
	// search is bitmap words and postings, no scan pass at all.
	reads := func(st smartdrill.SearchStats) int64 {
		return st.RowsScanned + st.PostingsRead + st.BitmapWordsRead
	}
	if reads(canceledStats) == 0 {
		t.Fatal("canceled search recorded no work at all")
	}
	ctlSess, _ := s.store.get(controlID)
	var ctlStats smartdrill.SearchStats
	ctlSess.do(context.Background(), func(e *smartdrill.Engine) { ctlStats = e.TotalSearchStats() })
	if reads(canceledStats) >= reads(ctlStats) {
		t.Fatalf("canceled search read %d rows+postings+bitmap words, control read %d — the abort saved nothing",
			reads(canceledStats), reads(ctlStats))
	}

	// Not poisoned: the same session drills normally afterwards.
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(api.DrillRequest{})
	serveDirect(s, context.Background(), "POST", "/v1/sessions/"+id+"/drill", body, rec)
	if rec.Code != http.StatusOK {
		t.Fatalf("drill after cancel: status %d: %s", rec.Code, rec.Body.String())
	}
	var dr api.DrillResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Node.Children) != 4 {
		t.Fatalf("drill after cancel returned %d children, want 4", len(dr.Node.Children))
	}
}

// TestBatchDrillCanceledContext: a batch drill whose context is already
// dead is rejected with the canceled error code and leaves the session
// usable.
func TestBatchDrillCanceledContext(t *testing.T) {
	cfg := Config{Logger: log.New(io.Discard, "", 0)}
	s := New(cfg)
	s.RegisterDataset("store", storeTable())

	rec := httptest.NewRecorder()
	body, _ := json.Marshal(api.CreateSessionRequest{Dataset: "store"})
	serveDirect(s, context.Background(), "POST", "/v1/sessions", body, rec)
	var tree api.Tree
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := httptest.NewRecorder()
	drill, _ := json.Marshal(api.DrillRequest{})
	serveDirect(s, ctx, "POST", "/v1/sessions/"+tree.ID+"/drill", drill, dead)
	if dead.Code != api.StatusCanceled {
		t.Fatalf("canceled drill: status %d, want %d: %s", dead.Code, api.StatusCanceled, dead.Body.String())
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(dead.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.ErrCanceled {
		t.Fatalf("error envelope %+v, want code %q", env.Error, api.ErrCanceled)
	}

	ok := httptest.NewRecorder()
	serveDirect(s, context.Background(), "POST", "/v1/sessions/"+tree.ID+"/drill", drill, ok)
	if ok.Code != http.StatusOK {
		t.Fatalf("drill after canceled drill: status %d", ok.Code)
	}
}
