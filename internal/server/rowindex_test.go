package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/internal/datagen"
)

// rowIndexServer is a server under cfg with tab registered as name and
// its log kept in logs.
func rowIndexServer(t *testing.T, cfg Config, name string, tab *smartdrill.Table, logs *lineLog) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = log.New(logs, "", 0)
	s := New(cfg)
	s.RegisterDataset(name, tab)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one work request and fails the test unless it succeeds.
func post(t *testing.T, url string, body, out any) {
	t.Helper()
	if code := doJSON(t, "POST", url, body, out); code != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, code)
	}
}

// stream reads one SSE drill stream to its end.
func stream(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
}

// TestCountRoutesLeaveRowIndexUnbuilt: a dataset whose rows compress is
// served to Count sessions from its distinct tuples alone, so no route
// builds the inverted index over its rows — exact and sampled sessions
// alike, through every route, the warmer and the background refiner, and
// across a restart that resumes them. The first root search builds the
// distinct tuples' pair masses, and one log line says so. A Sum session reads the rows: its
// first drill builds the index, one log line says so, and it answers what
// a server whose index was built at registration answers.
func TestCountRoutesLeaveRowIndexUnbuilt(t *testing.T) {
	census := datagen.CensusProjected(20000, 7, 7) // fresh: nothing of its index built
	column := census.ColumnNames()[1]
	backend, err := NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WarmChildren: 2, BackgroundRefine: true, Backend: backend}
	var logs lineLog
	s, ts := rowIndexServer(t, cfg, "census", census, &logs)
	s.WaitWarmers()

	sessions := map[string]api.CreateSessionRequest{
		"exact": {Dataset: "census", K: 4, Seed: 1},
		"sampled": {Dataset: "census", K: 4, Seed: 1, Prefetch: true,
			SampleMemory: 20000, MinSampleSize: 2000, SampleThreshold: 5000},
	}
	ids := map[string]string{}
	for kind, req := range sessions {
		id := createSession(t, ts.URL, req).ID
		ids[kind] = id
		url := ts.URL + "/v1/sessions/" + id
		var root api.DrillResponse
		post(t, url+"/drill", api.DrillRequest{}, &root)
		if len(root.Node.Children) < 2 {
			t.Fatalf("%s: root drill found %d rules", kind, len(root.Node.Children))
		}
		first, second := root.Node.Children[0].ID, root.Node.Children[1].ID
		post(t, url+"/drill", api.DrillRequest{Node: first}, nil)
		star := ""
		for _, c := range census.ColumnNames() {
			if _, instantiated := root.Node.Children[1].Rule[c]; !instantiated {
				star = c
			}
		}
		post(t, url+"/drill", api.DrillRequest{Node: second, Column: star}, nil)
		stream(t, url+"/drill/stream?node="+root.Node.Children[len(root.Node.Children)-1].ID+"&max_rules=2")
		post(t, url+"/refine", api.RefineRequest{Node: first}, nil)
		post(t, url+"/traditional", api.TraditionalRequest{Node: first, Column: column}, nil)
		fetchTree(t, ts.URL, id)
		post(t, url+"/collapse", api.DrillRequest{Node: first}, nil)
	}
	s.WaitRefiners()
	if !strings.Contains(logs.String(), "dataset census: 20000 rows → ") {
		t.Fatalf("the census table did not compress; log:\n%s", logs.String())
	}

	// A restart on the same snapshot directory resumes both sessions, and
	// drilling on in them reads no more of the rows than before.
	ts.Close()
	s, ts = rowIndexServer(t, cfg, "census", census, &logs)
	if n, err := s.RecoverSessions(); err != nil || n != len(ids) {
		t.Fatalf("RecoverSessions = %d, %v; want %d", n, err, len(ids))
	}
	s.WaitWarmers()
	for kind, id := range ids {
		var tree api.Tree
		if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
			t.Fatalf("%s: tree after restart: status %d", kind, code)
		}
		post(t, ts.URL+"/v1/sessions/"+id+"/drill", api.DrillRequest{Node: tree.Root.Children[0].ID}, nil)
	}
	s.WaitRefiners()
	if _, index := census.ResidentBytes(); index != 0 || strings.Contains(logs.String(), "dataset census: indexed") {
		t.Fatalf("Count sessions built the row index (%d bytes); log:\n%s", index, logs.String())
	}
	if n := strings.Count(logs.String(), "dataset census: pair masses of "); n != 1 {
		t.Fatalf("%d pair mass lines, want the one of the distinct tuples' index; log:\n%s", n, logs.String())
	}

	// A Sum session reads the rows: its first drill builds the index. (The
	// store's rows do not compress, so no warmer: its Count drills would
	// build the index too.)
	sumTree := func(warm bool) []byte {
		tab, err := smartdrill.LoadCSV("../../examples/data/storesales.csv", []string{"Sales"})
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			tab.Index().Warm()
		}
		var logs lineLog
		_, ts := rowIndexServer(t, Config{}, "sales", tab, &logs)
		if _, index := tab.ResidentBytes(); !warm && index != 0 {
			t.Fatalf("registration built the row index (%d bytes)", index)
		}
		id := createSession(t, ts.URL, api.CreateSessionRequest{Dataset: "sales", K: 4, Sum: "Sales"}).ID
		post(t, ts.URL+"/v1/sessions/"+id+"/drill", api.DrillRequest{}, nil)
		if _, index := tab.ResidentBytes(); index == 0 {
			t.Fatal("a Sum drill left the row index unbuilt")
		}
		if built := strings.Count(logs.String(), "dataset sales: indexed 6000 rows ("); built != map[bool]int{false: 1, true: 0}[warm] {
			t.Fatalf("warm %v: %d index build lines; log:\n%s", warm, built, logs.String())
		}
		// The tree without the session's minted id.
		return bytes.Replace(fetchTree(t, ts.URL, id), []byte(id), nil, 1)
	}
	if cold, warm := sumTree(false), sumTree(true); string(cold) != string(warm) {
		t.Fatalf("a Sum session's tree depends on when the index was built:\ncold: %s\nwarm: %s", cold, warm)
	}
}
