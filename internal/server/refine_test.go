package server

// Tests for the provisional→exact lifecycle over HTTP: refine events on
// the SSE stream and the background refiner racing live requests.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/internal/datagen"
)

// censusTable is a table large enough that sampled sessions actually
// sample (20k rows, 7 columns), shared across tests.
var censusTable = sync.OnceValue(func() *smartdrill.Table {
	return datagen.CensusProjected(20000, 7, 7)
})

// newSampledServer registers the census dataset alongside the store one.
func newSampledServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	s.RegisterDataset("census", censusTable())
	return s, ts
}

// sampledCreate is the canonical sampled-session request the tests use.
func sampledCreate() api.CreateSessionRequest {
	return api.CreateSessionRequest{
		Dataset:         "census",
		K:               4,
		SampleMemory:    20000,
		MinSampleSize:   2000,
		SampleThreshold: 5000,
		Seed:            1,
	}
}

// trueCount resolves a api.Node's rule against the census table and
// returns its exact count.
func trueCount(t *testing.T, n *api.Node) float64 {
	t.Helper()
	r, err := censusTable().EncodeRule(n.Rule)
	if err != nil {
		t.Fatalf("decoding rule %v: %v", n.Rule, err)
	}
	return float64(censusTable().Count(r))
}

// TestDrillStreamRefineEvents drives the approximate pipeline end to end
// over SSE: provisional rule events with confidence intervals first, then
// one refine event per rule replacing the estimate with the exact count.
func TestDrillStreamRefineEvents(t *testing.T) {
	// With prefetch on, the stream's own §4.3 pass upgrades some children to
	// exact before the refinement phase reaches them; they owe the client a
	// refine event all the same.
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			streamRefineEvents(t, prefetch)
		})
	}
}

func streamRefineEvents(t *testing.T, prefetch bool) {
	_, ts := newSampledServer(t, Config{})
	create := sampledCreate()
	create.Prefetch = prefetch
	id := createSession(t, ts.URL, create).ID

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/drill/stream?budget_ms=10000&max_rules=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("got %d events, want rules + refines + done", len(events))
	}

	rules := map[string]api.Node{}   // node ID → provisional node
	refines := map[string]api.Node{} // node ID → refined node
	var done struct {
		Rules   int    `json:"rules"`
		Refined int    `json:"refined"`
		Access  string `json:"access"`
		Error   string `json:"error"`
	}
	for i, ev := range events {
		switch ev.event {
		case "rule", "refine":
			var n api.Node
			if err := json.Unmarshal([]byte(ev.data), &n); err != nil {
				t.Fatalf("%s payload %q: %v", ev.event, ev.data, err)
			}
			if ev.event == "rule" {
				rules[n.ID] = n
			} else {
				if _, seen := rules[n.ID]; !seen {
					t.Fatalf("refine for node %s before its rule event", n.ID)
				}
				refines[n.ID] = n
			}
		case "done":
			if i != len(events)-1 {
				t.Fatal("done event was not last")
			}
			if err := json.Unmarshal([]byte(events[i].data), &done); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected event %q", ev.event)
		}
	}
	if done.Error != "" {
		t.Fatalf("stream reported error: %s", done.Error)
	}
	if done.Access == "direct" || done.Access == "" {
		t.Fatalf("access %q: the stream should have sampled", done.Access)
	}
	if len(rules) == 0 {
		t.Fatal("no rule events")
	}
	if done.Rules != len(rules) || done.Refined != len(refines) {
		t.Fatalf("done reports %d/%d, events carried %d/%d", done.Rules, done.Refined, len(rules), len(refines))
	}

	// Every provisional rule is refined, and refinement lands the exact
	// count with the interval gone.
	for key, prov := range rules {
		if prov.Exact {
			t.Fatalf("rule event at %s claims exactness off the sample", key)
		}
		if prov.CI == nil {
			t.Fatalf("provisional rule at %s has no confidence interval", key)
		}
		if prov.CI[0] > prov.Count || prov.CI[1] < prov.Count {
			t.Fatalf("rule at %s: estimate %g outside CI %v", key, prov.Count, *prov.CI)
		}
		ref, ok := refines[key]
		if !ok {
			t.Fatalf("provisional rule at %s never refined", key)
		}
		if !ref.Exact || ref.CI != nil {
			t.Fatalf("refine at %s not exact: %+v", key, ref)
		}
		if truth := trueCount(t, &ref); ref.Count != truth {
			t.Fatalf("refine at %s: count %g != exact %g", key, ref.Count, truth)
		}
	}

	// The refined counts persist in the session tree.
	var tree api.Tree
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	for _, c := range tree.Root.Children {
		if !c.Exact {
			t.Fatalf("tree child %v still provisional after stream refinement", c.Rule)
		}
	}
}

// TestBackgroundRefine: a plain (non-stream) drill on a sampled session
// responds with provisional counts, and the background refiner upgrades
// the tree to exact counts without any further request.
func TestBackgroundRefine(t *testing.T) {
	srv, ts := newSampledServer(t, Config{BackgroundRefine: true})
	id := createSession(t, ts.URL, sampledCreate()).ID

	var resp api.DrillResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/drill", api.DrillRequest{}, &resp); code != http.StatusOK {
		t.Fatalf("drill: status %d", code)
	}
	if resp.Access == "direct" {
		t.Fatal("drill should have sampled")
	}
	provisional := 0
	for _, c := range resp.Node.Children {
		if !c.Exact {
			provisional++
		}
	}
	if provisional == 0 {
		t.Fatal("sampled drill returned no provisional children")
	}

	srv.WaitRefiners()
	var tree api.Tree
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	for _, c := range tree.Root.Children {
		if !c.Exact {
			t.Fatalf("child %v still provisional after background refinement", c.Rule)
		}
		if c.CI != nil {
			t.Fatalf("refined child %v still advertises a CI", c.Rule)
		}
	}
}

// TestBackgroundRefinerRace exercises the refiner racing live requests on
// one shared session: concurrent drills, star drills, tree fetches, and
// the per-node lock/unlock refinement cycle. Run under -race (make race /
// CI) this is the pipeline's data-race check.
func TestBackgroundRefinerRace(t *testing.T) {
	srv, ts := newSampledServer(t, Config{BackgroundRefine: true})
	id := createSession(t, ts.URL, sampledCreate()).ID

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				var resp api.DrillResponse
				// Re-expanding the root collapses and replaces children the
				// refiner may be working on — exactly the race under test.
				if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/drill", api.DrillRequest{}, &resp); code != http.StatusOK {
					t.Errorf("drill: status %d", code)
					return
				}
				var tree api.Tree
				if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
					t.Errorf("tree: status %d", code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	srv.WaitRefiners()

	// Quiesced: every displayed node has been refined to exact.
	var tree api.Tree
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree", nil, &tree); code != http.StatusOK {
		t.Fatalf("tree: status %d", code)
	}
	var walk func(n *api.Node)
	walk = func(n *api.Node) {
		if !n.Exact {
			t.Errorf("node %v still provisional after quiescence", n.Rule)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range tree.Root.Children {
		walk(c)
	}
}
