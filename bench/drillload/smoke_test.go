package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smartdrill/api"
)

// The tests run the real thing — a built smartdrilld per workload, the
// client SDK over loopback, every correctness check — on tables a few
// percent of full size with a fixed number of sessions, so they finish in
// seconds and two runs do identical work.

// testSeed is distinctive on purpose: the determinism test greps for its
// digits in everything the server was handed.
const testSeed = 7040925

var (
	binOnce sync.Once
	binPath string
	binErr  error
)

// testConfig returns a small, count-based configuration writing under a
// temp directory, with smartdrilld built once per test binary.
func testConfig(t *testing.T, seed int64) *config {
	t.Helper()
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "drillload-test-bin-")
		if err != nil {
			binErr = err
			return
		}
		binPath, binErr = buildServer(root, dir)
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return &config{
		root:         root,
		outDir:       t.TempDir(),
		bin:          binPath,
		seed:         seed,
		reps:         1,
		sessions:     2,
		scale:        0.01,
		data:         make(map[datasetSpec]*dataset),
		pool:         4,
		starts:       1,
		probeCreates: 5,
		keepScript:   true,
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(filepath.Dir(binPath)))
	}
	os.Exit(code)
}

// gatedOnce shares one gated run at testSeed between the smoke and the
// determinism test.
var (
	gatedOnce sync.Once
	gatedRes  []*result
	gatedErr  error
)

func gatedRun(t *testing.T) []*result {
	t.Helper()
	cfg := testConfig(t, testSeed)
	gatedOnce.Do(func() {
		gatedRes, gatedErr = runGated(context.Background(), cfg, workloads())
	})
	if gatedErr != nil {
		t.Fatal(gatedErr)
	}
	return gatedRes
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	root, err := checkoutRoot()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bench.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, catalogue has %v", got, want)
	}
	for _, d := range bench.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeGated: every workload, every end-to-end metric present with
// its unit, nothing failed.
func TestSmokeGated(t *testing.T) {
	results := gatedRun(t)
	bench, err := loadBenchmarkFile(testConfig(t, testSeed).root)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(bench.Workloads) {
		t.Fatalf("got %d results, want %d", len(results), len(bench.Workloads))
	}
	for _, res := range results {
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: failed=%d correct=%v: %v", res.Workload, res.Failed, res.Correct, res.Failures)
		}
		if res.Attempted < 1 {
			t.Errorf("%s: attempted %d", res.Workload, res.Attempted)
		}
		line, err := contractLine(res, bench.EndToEnd)
		if err != nil {
			t.Errorf("%s: %v", res.Workload, err)
			continue
		}
		var parsed struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatalf("%s: contract line does not parse: %v", res.Workload, err)
		}
		for _, d := range bench.EndToEnd {
			m, ok := parsed.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", res.Workload, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
			case m.Value <= 0:
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", res.Workload, d.Name, m.Value)
			}
		}
		if len(parsed.Metrics) != len(bench.EndToEnd) {
			t.Errorf("%s: contract line carries %d metrics, BENCHMARK.json lists %d", res.Workload, len(parsed.Metrics), len(bench.EndToEnd))
		}
	}
}

// TestSmokeTraced: every per-layer metric present, every layer in the
// span file, self times accounting for the client span. hot-shared is left
// out to keep tier-1 short: its layers (a hit at every level) are a subset
// of hot-durable's.
func TestSmokeTraced(t *testing.T) {
	cfg := testConfig(t, testSeed)
	bench, err := loadBenchmarkFile(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	all := gatedRun(t)
	ws := []*workload{workloadByName("cold-exact"), workloadByName("hot-durable"), workloadByName("sampled-1m")}
	results, err := runTraced(context.Background(), cfg, ws, []*result{all[0], all[2], all[3]})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range bench.PerLayer {
		listed[d.Name] = true
	}
	for _, res := range results {
		if res.Failed != 0 {
			t.Errorf("%s: failed=%d: %v", res.Workload, res.Failed, res.Failures)
		}
		if _, err := contractLine(res, bench.PerLayer); err != nil {
			t.Errorf("%s: %v", res.Workload, err)
		}
		// The other direction: a layer.metric the program computes but the
		// file does not list would be measured and never shown.
		for name := range res.Metrics {
			layer, _, dotted := strings.Cut(name, ".")
			if dotted && layer != "client" && !listed[name] {
				t.Errorf("%s: computed metric %s is not in BENCHMARK.json", res.Workload, name)
			}
		}
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+res.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range tf.Spans {
			seen[s.Layer] = true
		}
		want := []string{"client", "server", "drill", "search"}
		switch res.Workload {
		case "cold-exact":
			want = append(want, "brs", "table")
		case "hot-durable":
			want = append(want, "backend")
		case "sampled-1m":
			want = append(want, "brs", "sampling")
		}
		for _, layer := range want {
			if !seen[layer] {
				t.Errorf("%s: no %s span recorded", res.Workload, layer)
			}
		}
		// Shadow spans are fitted into their parents, so self times are a
		// partition of the client span unless a backend call fell outside
		// its request.
		for _, ct := range tf.Tables {
			if ct.Covered < 0.9 || ct.Covered > 1.0001 {
				t.Errorf("%s/%s: self times cover %.3f of the client span", res.Workload, ct.Class, ct.Covered)
			}
		}
	}
}

// TestTamperedResponseFails: a count one off must fail the op it came in.
func TestTamperedResponseFails(t *testing.T) {
	cfg := testConfig(t, testSeed)
	cfg.sessions = 1
	tampered := false
	cfg.tamper = func(resp *api.DrillResponse) {
		if !tampered && len(resp.Node.Children) > 0 {
			resp.Node.Children[0].Count++
			tampered = true
		}
	}
	results, err := runGated(context.Background(), cfg, []*workload{workloadByName("cold-exact")})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if !tampered {
		t.Fatal("no drill response was tampered with")
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("tampered count was not caught: failed=%d correct=%v", res.Failed, res.Correct)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "scan says") {
		t.Fatalf("failure does not name the count check: %v", res.Failures)
	}
}
