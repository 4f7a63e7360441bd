// Command drillload is the repository's benchmark: it measures a real
// smartdrilld end to end through the client SDK, and each layer of the
// request path on its own.
//
// It is a module of its own (bench/go.mod, replacing smartdrill with the
// checkout around it) and is started through bench/run.sh.
//
// A gated run (-trace 0, the default) builds cmd/smartdrilld, starts it on
// a generated dataset, and drives it with one closed-loop client — the
// next request is sent when the previous one has been answered and
// verified — through a script derived from -seed alone. Every count the
// server returns is checked against the harness's own scan of the table.
// A traced run (-trace 1) hosts the server's handler in-process behind a
// real listener, records a span at every layer boundary it can reach from
// outside, and runs the per-layer suite (layers.go).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, holding exactly the metrics
// BENCHMARK.json lists: end_to_end for -trace 0, per_layer for -trace 1.
// Everything else drillload measured goes to standard error and to
// bench/out/result-<workload>.json. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// options are drillload's command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	sessions int
	runs     int
	out      string
	compare  bool
	aa       int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or \"all\" (repetitions interleaved across workloads)")
	flag.Int64Var(&o.seed, "seed", 1, "script seed: session order, listing columns, sampling seeds")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload (0 = BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "0 = gated end-to-end run against a real smartdrilld; 1 = that, then the in-process traced run and the per-layer suite")
	flag.IntVar(&o.sessions, "sessions", 0, "run exactly this many sessions per repetition instead of timing out (identical work across runs)")
	flag.IntVar(&o.runs, "runs", 1, "repeat the whole benchmark with seeds seed, seed+1, …")
	flag.StringVar(&o.out, "out", "", "also write every result of this invocation to this JSON file (input to -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: drillload -compare a.json b.json")
	flag.IntVar(&o.aa, "aa", 0, "run the benchmark 2N times, compare the even runs with the odd ones, and write bench/NOISE.md")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "drillload:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	bench, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(os.Stdout, bench, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(bench.RunSeconds)
	}
	var ws []*workload
	if o.workload == "all" {
		ws = workloads()
	} else if w := workloadByName(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	// Cancellation is the single cleanup path for signals: every harness
	// defers its own close, and a cancelled context makes the operation in
	// flight fail so the deferred closes run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := &config{
		root:         root,
		outDir:       filepath.Join(root, "bench", "out"),
		seconds:      o.seconds,
		reps:         3,
		sessions:     o.sessions,
		scale:        1,
		data:         make(map[datasetSpec]*dataset),
		pool:         64,
		starts:       3,
		probeCreates: 100,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.bin, err = buildServer(root, cfg.outDir); err != nil {
		return err
	}
	if o.aa > 0 {
		o.runs = 2 * o.aa
	}
	var all []*result
	for i := 0; i < o.runs; i++ {
		c := *cfg
		c.seed = o.seed + int64(i)
		results, err := runGated(ctx, &c, ws)
		if err == nil && o.trace != 0 {
			results, err = runTraced(ctx, &c, ws, results)
		}
		if err != nil {
			return err
		}
		for _, res := range results {
			report(os.Stderr, res, bench)
			if err := writeJSON(filepath.Join(cfg.outDir, resultName(res)), res); err != nil {
				return err
			}
		}
		all = append(all, results...)
	}
	if o.out != "" {
		if err := writeJSON(o.out, all); err != nil {
			return err
		}
	}
	if o.aa > 0 {
		return writeNoise(os.Stdout, root, bench, all)
	}
	defs := bench.EndToEnd
	if o.trace != 0 {
		defs = bench.PerLayer
	}
	bad := 0
	for _, res := range all[len(all)-len(ws):] {
		line, err := contractLine(res, defs)
		if err != nil {
			return err
		}
		fmt.Println(line)
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		// The line above already says correct=false with the failed count;
		// the exit status stays 0 so the reader sees it rather than a crash.
		fmt.Fprintf(os.Stderr, "drillload: %d workload(s) failed their checks\n", bad)
	}
	return nil
}

// runGated measures the given workloads against real smartdrilld
// processes. With several workloads their repetitions are interleaved —
// A1 B1 C1 D1 A2 … — with every server left up (an idle server costs
// nothing), so a noisy half-minute on a shared box lands in at most one
// repetition per workload instead of in all three of one workload.
func runGated(ctx context.Context, cfg *config, ws []*workload) ([]*result, error) {
	hs := make([]*harness, 0, len(ws))
	started := make([]time.Time, 0, len(ws))
	defer func() {
		for _, h := range hs {
			h.close()
		}
	}()
	for _, w := range ws {
		t0 := time.Now()
		h, err := newHarness(ctx, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		hs = append(hs, h)
		started = append(started, t0)
		if err := h.prepare(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for i := 0; i < cfg.reps; i++ {
		for _, h := range hs {
			if err := h.rep(i); err != nil {
				return nil, fmt.Errorf("%s: repetition %d: %w", h.w.name, i+1, err)
			}
		}
	}
	var out []*result
	for i, h := range hs {
		out = append(out, h.finish(time.Since(started[i])))
	}
	return out, nil
}

// checkoutRoot finds the directory holding the smartdrill module's go.mod,
// walking up from the working directory (bench/run.sh starts drillload in
// the checkout root; go test runs it from bench/drillload, below the
// benchmark's own go.mod).
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module smartdrill\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the smartdrill module (no go.mod found)")
		}
		dir = parent
	}
}

func resultName(res *result) string {
	if res.Traced {
		return "result-" + res.Workload + "-traced.json"
	}
	return "result-" + res.Workload + ".json"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
