package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// TestBodiesAreCompact: every JSON body the server writes — each route's
// success and each class of error — is the contract's value and not a byte
// more: valid JSON that json.Compact leaves alone, ended by one newline,
// decoding to what its indented form decodes to, and sent whole under a
// Content-Length (a 22-node tree is past the size net/http would frame in
// chunks on its own).
//
// One session on census is walked through the rows in order; node ids are
// the session's own sequence (root n1, its children n2–n4, and so on), so a
// row that assumes the wrong id fails on its status.
func TestBodiesAreCompact(t *testing.T) {
	s, ts := newSampledServer(t, Config{AdmissionWait: 5 * time.Millisecond})
	huge, err := smartdrill.NewTableBuilder([]string{"A"}, []string{"M"})
	if err != nil {
		t.Fatal(err)
	}
	huge.MustAddRow([]string{"x"}, 1e308)
	huge.MustAddRow([]string{"y"}, 1e308)
	s.RegisterDataset("huge", huge.Build())
	cols := censusTable().ColumnNames()
	star := `"column":"` + cols[len(cols)-1] + `"`

	rows := []struct {
		name, method, target, body string
		status                     int
		into                       any // the api type the body must decode into
	}{
		{"datasets", "GET", "/v1/datasets", "", 200, api.DatasetList{}},
		{"health", "GET", "/v1/health", "", 200, api.Health{}},
		{"create", "POST", "/v1/sessions", `{"dataset":"census"}`, 201, api.Tree{}},
		{"star drill", "POST", "/v1/sessions/{id}/drill", `{` + star + `}`, 200, api.DrillResponse{}},
		{"collapse", "POST", "/v1/sessions/{id}/collapse", `{}`, 200, api.DrillResponse{}},
		{"404 stale id", "POST", "/v1/sessions/{id}/drill", `{"node":"n2"}`, 404, api.ErrorEnvelope{}},
		{"drill", "POST", "/v1/sessions/{id}/drill", `{}`, 200, api.DrillResponse{}},
		{"drill child n5", "POST", "/v1/sessions/{id}/drill", `{"node":"n5"}`, 200, api.DrillResponse{}},
		{"drill child n6", "POST", "/v1/sessions/{id}/drill", `{"node":"n6"}`, 200, api.DrillResponse{}},
		{"drill child n7", "POST", "/v1/sessions/{id}/drill", `{"node":"n7"}`, 200, api.DrillResponse{}},
		{"drill grandchild n9", "POST", "/v1/sessions/{id}/drill", `{"node":"n9"}`, 200, api.DrillResponse{}},
		{"drill grandchild n12", "POST", "/v1/sessions/{id}/drill", `{"node":"n12"}`, 200, api.DrillResponse{}},
		{"drill grandchild n14", "POST", "/v1/sessions/{id}/drill", `{"node":"n14"}`, 200, api.DrillResponse{}},
		{"refine", "POST", "/v1/sessions/{id}/refine", `{"node":"n5"}`, 200, api.RefineResponse{}},
		{"traditional", "POST", "/v1/sessions/{id}/traditional", `{` + star + `}`, 200, api.TraditionalResponse{}},
		{"tree", "GET", "/v1/sessions/{id}/tree", "", 200, api.Tree{}},
		{"400 strict decode", "POST", "/v1/sessions/{id}/drill", `{"path":[0]}`, 400, api.ErrorEnvelope{}},
		{"404 unknown session", "GET", "/v1/sessions/nosuchsession/tree", "", 404, api.ErrorEnvelope{}},
		{"429 shed", "POST", "/v1/sessions/{id}/drill", `{}`, 429, api.ErrorEnvelope{}},
		{"500 unencodable", "POST", "/v1/sessions", `{"dataset":"huge","sum":"M"}`, 500, api.ErrorEnvelope{}},
		{"delete", "DELETE", "/v1/sessions/{id}", "", 200, api.DeleteResponse{}},
	}
	id := ""
	for _, row := range rows {
		req, err := http.NewRequest(row.method, ts.URL+strings.ReplaceAll(row.target, "{id}", id), strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		// The 429 row finds every admission slot taken.
		shed := row.status == http.StatusTooManyRequests
		for i := 0; shed && i < cap(s.adm.slots); i++ {
			s.adm.slots <- struct{}{}
		}
		resp, err := http.DefaultClient.Do(req)
		for i := 0; shed && i < cap(s.adm.slots); i++ {
			<-s.adm.slots
		}
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading the body: %v", row.name, err)
		}
		if resp.StatusCode != row.status {
			t.Fatalf("%s: status %d, want %d; body %s", row.name, resp.StatusCode, row.status, body)
		}

		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: %d body bytes sent with Content-Length %d, Transfer-Encoding %v",
				row.name, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", row.name, ct)
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: body is not JSON: %v\n%s", row.name, err, body)
		}
		if want := compact.String() + "\n"; string(body) != want {
			t.Errorf("%s: body is not compact JSON ended by one newline:\n%q\nwant\n%q", row.name, body, want)
		}
		if err := json.Indent(&indented, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		decode := func(form []byte) any {
			v := reflect.New(reflect.TypeOf(row.into)).Interface()
			dec := json.NewDecoder(bytes.NewReader(form))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				t.Fatalf("%s: body does not decode into %T: %v\n%s", row.name, row.into, err, form)
			}
			return v
		}
		got, same := decode(body), decode(indented.Bytes())
		if !reflect.DeepEqual(got, same) {
			t.Errorf("%s: the compact body and its indented form decode differently:\n%+v\n%+v", row.name, got, same)
		}

		switch v := got.(type) {
		case *api.Tree:
			if row.name == "create" {
				id = v.ID
				break
			}
			nodes := 0
			var count func(n *api.Node)
			count = func(n *api.Node) {
				nodes++
				for _, c := range n.Children {
					count(c)
				}
			}
			count(v.Root)
			if nodes != 22 {
				t.Errorf("tree has %d nodes, want the 22-node tree; rendered:\n%s", nodes, v.Rendered)
			}
		case *api.ErrorEnvelope:
			if v.Error == nil || api.HTTPStatus(v.Error.Code) != row.status {
				t.Errorf("%s: error envelope %+v under status %d", row.name, v.Error, row.status)
			}
		}
	}
}

// TestRequestID: a usable X-Request-Id is echoed, anything else is replaced
// by 16 minted hex characters, and the id is on every kind of response —
// error envelopes and SSE streams included — and in the request's log line.
func TestRequestID(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Logger: log.New(&logged, "", 0)})
	s.RegisterDataset("store", storeTable())
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)

	// send drives the handler directly: net/http's client would refuse to
	// put a newline in a header, and the server must not depend on that.
	send := func(method, target, body, rid string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if rid != "" {
			req.Header["X-Request-Id"] = []string{rid}
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	echoed := func(rec *httptest.ResponseRecorder) string {
		t.Helper()
		ids := rec.Result().Header.Values("X-Request-Id")
		if len(ids) != 1 {
			t.Fatalf("response carries %d X-Request-Id headers: %q", len(ids), ids)
		}
		return ids[0]
	}

	rec := send("POST", "/v1/sessions", `{"dataset":"store"}`, "analyst-7/click.42")
	if got := echoed(rec); got != "analyst-7/click.42" || rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d, X-Request-Id %q, want the client's own", rec.Code, got)
	}
	var tree api.Tree
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "POST /v1/sessions 201 ") || !strings.Contains(logged.String(), " rid=analyst-7/click.42 timing=(") {
		t.Errorf("the access-log line does not carry the request id:\n%s", logged.String())
	}

	seen := map[string]bool{}
	for name, rid := range map[string]string{
		"absent":    "",
		"newline":   "a\nb",
		"space":     "a b",
		"control":   "a\x7fb",
		"non-ASCII": "clé",
		"1 KB":      strings.Repeat("x", 1024),
		"65 chars":  strings.Repeat("x", 65),
	} {
		got := echoed(send("GET", "/v1/health", "", rid))
		if !minted.MatchString(got) {
			t.Errorf("%s X-Request-Id: response carries %q, want 16 minted hex characters", name, got)
		}
		if seen[got] {
			t.Errorf("request id %q minted twice", got)
		}
		seen[got] = true
	}
	if got := echoed(send("GET", "/v1/health", "", strings.Repeat("x", 64))); got != strings.Repeat("x", 64) {
		t.Errorf("a 64-character id was not echoed: %q", got)
	}

	rec = send("GET", "/v1/sessions/nosuchsession/tree", "", "lost")
	if got := echoed(rec); rec.Code != http.StatusNotFound || got != "lost" {
		t.Errorf("404: status %d, X-Request-Id %q", rec.Code, got)
	}
	rec = send("GET", "/v1/sessions/"+tree.ID+"/drill/stream?max_rules=1", "", "")
	if got := echoed(rec); rec.Code != http.StatusOK || !minted.MatchString(got) ||
		rec.Result().Header.Get("Content-Type") != "text/event-stream" {
		t.Errorf("stream: status %d, X-Request-Id %q, Content-Type %q", rec.Code, got, rec.Result().Header.Get("Content-Type"))
	}
	rec = send("GET", "/v1/sessions/"+tree.ID+"/drill/stream", "", "streamed")
	if got := echoed(rec); got != "streamed" || !strings.Contains(rec.Body.String(), "event: done") {
		t.Errorf("stream: X-Request-Id %q, body %q", got, rec.Body)
	}

	// A drill that executed its search is logged with its phases beside its
	// id: the line a client's Server-Timing report is matched against.
	s.RegisterDataset("census", censusTable())
	rec = send("POST", "/v1/sessions", `{"dataset":"census","k":2}`, "")
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	rec = send("POST", "/v1/sessions/"+tree.ID+"/drill", `{}`, "slow-one")
	timing := rec.Result().Header.Get("Server-Timing")
	if timing == "" || !strings.Contains(logged.String(), " rid=slow-one timing=("+timing+")\n") {
		t.Errorf("executed drill: Server-Timing %q is not beside its id in the log:\n%s", timing, logged.String())
	}

	// The panic line names the request too.
	boom := withRequestID(s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("engine bug") })))
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set("X-Request-Id", "doomed")
	boom.ServeHTTP(rec, req)
	if got := echoed(rec); rec.Code != http.StatusInternalServerError || got != "doomed" {
		t.Errorf("recovered panic: status %d, X-Request-Id %q", rec.Code, got)
	}
	if !strings.Contains(logged.String(), "panic serving GET /boom rid=doomed: engine bug") {
		t.Errorf("the panic line does not carry the request id:\n%s", logged.String())
	}
}

// TestSearchStatsMirror: the wire's search block carries every BRS counter
// under the engine's own name, type and JSON name, but those that stay in
// process (their JSON name is "-": CellsBooked, RoutedReads, KeeperAdds and
// StoreProbes); and encodeStats copies each of them, so a counter added to
// one definition and not the other fails here.
func TestSearchStatsMirror(t *testing.T) {
	var s smartdrill.SearchStats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(int64(i + 1))
		}
	}
	wire := reflect.ValueOf(encodeStats(s)).Elem()
	st, wt := sv.Type(), wire.Type()
	inProcess := map[string]bool{"CellsBooked": true, "RoutedReads": true, "KeeperAdds": true, "StoreProbes": true}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		wf, ok := wt.FieldByName(f.Name)
		if inProcess[f.Name] || f.Tag.Get("json") == "-" {
			if ok || !inProcess[f.Name] || f.Tag.Get("json") != "-" {
				t.Errorf("%s: on the wire %v, JSON name %q; want exactly %v in process only", f.Name, ok, f.Tag.Get("json"), inProcess)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: no wire field", f.Name)
			continue
		}
		if wf.Type != f.Type || wf.Tag.Get("json") != f.Tag.Get("json") {
			t.Errorf("%s: wire %v %q, engine %v %q", f.Name, wf.Type, wf.Tag.Get("json"), f.Type, f.Tag.Get("json"))
		}
		if got, want := wire.FieldByIndex(wf.Index).Interface(), sv.Field(i).Interface(); got != want {
			t.Errorf("%s: encoded %v, want %v", f.Name, got, want)
		}
	}
	if wt.NumField() != st.NumField()-len(inProcess) {
		t.Errorf("the wire has %d counters, the engine %d besides %v", wt.NumField(), st.NumField()-len(inProcess), inProcess)
	}
}
