package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are fixed. drillload computes values by
// name and reads everything else about a metric from here, so the file and
// the program cannot drift apart silently (the smoke test checks both
// directions).
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// check is one run-wide correctness condition and how it came out.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// environment describes the box a result was taken on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnvironment(root string) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown", // a checkout exported without .git has none
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// A checkout without .git must read "unknown", not the commit of a
	// repository that happens to lie above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is everything one run of one workload produced. Metrics holds
// every value drillload computed, gated or not; the contract line printed
// last on stdout is the subset BENCHMARK.json names.
type result struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Traced     bool                  `json:"traced"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Metrics    map[string]float64    `json:"metrics"`
	Samples    map[string]int        `json:"samples"` // sample count behind each latency metric
	Checks     []check               `json:"checks"`
	Failures   []string              `json:"failures,omitempty"`
	ScriptHash string                `json:"script_hash"`
	Latency    map[string]latencyRow `json:"latency_ms"` // every recorded class, pooled over repetitions
	Wire       map[string]*wireWork  `json:"wire_work"`
	Layers     []classTable          `json:"layer_self_time,omitempty"`
	ServerArgs []string              `json:"server_args,omitempty"` // smartdrilld's argv (gated runs)
	WallS      float64               `json:"wall_s"`
	Env        environment           `json:"env"`

	script []string // every request line, when config.keepScript asked for it
}

// latencyRow is the distribution of one operation class over a whole run:
// the tails and the floor the gated medians do not show.
type latencyRow struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// The reporting rule. The box this benchmark runs on is shared: a fixed
// single-thread kernel does between 57 % and 100 % of its best work per
// half second (bench/NOISE.md), in episodes of seconds. Interference only
// ever slows things down, so every timed metric is read from the quieter
// part of the run: the samples of a class are cut, in issue order, into at
// most quietBlocks consecutive blocks; each block gives its median; the
// reported p50 is the lower quartile of those block medians — the median
// latency during the quarter of the run the box disturbed least. A class
// that comes several to a script unit (a session drills three different
// children) is blocked in whole units, so a block median is a median over
// the mix and not over its cheapest member; a class with few samples
// (three root drills) degenerates to the lower quartile of the samples.
// Throughput and CPU per operation are read the same way
// from the time blocks of the throughput windows (upper and lower quartile).
// A real regression moves every block; a noisy neighbour moves some.
const quietBlocks = 12

func quietP50(ds []time.Duration, perUnit int) float64 {
	if len(ds) == 0 {
		return 0
	}
	groups := len(ds) / max(perUnit, 1)
	n := max(1, min(quietBlocks, groups))
	meds := make([]float64, n)
	for i := range meds {
		lo, hi := i*groups/n*perUnit, (i+1)*groups/n*perUnit
		if i == n-1 {
			hi = len(ds)
		}
		meds[i] = median(msAll(ds[lo:hi]))
	}
	return quantile(meds, 0.25)
}

// perUnit is how many samples of class one script unit produces, when the
// windows' samples divide evenly over the units (1 otherwise: the probe or
// a build phase fed the class too, and its samples are all alike).
func (h *harness) perUnit(class opClass) int {
	if n := h.winCount[class]; h.units > 0 && n >= h.units && n%h.units == 0 && n == len(h.lat[class]) {
		return n / h.units
	}
	return 1
}

// pooled returns every recorded latency of the given classes, in ms.
func (h *harness) pooled(classes ...opClass) []float64 {
	var out []float64
	for _, c := range classes {
		out = append(out, msAll(h.lat[c])...)
	}
	return out
}

// finish turns what the harness recorded into a result.
func (h *harness) finish(wall time.Duration) *result {
	res := &result{
		Workload:   h.w.name,
		Seed:       h.cfg.seed,
		Metrics:    make(map[string]float64),
		Samples:    make(map[string]int),
		ScriptHash: h.scriptHash(),
		Wire:       make(map[string]*wireWork),
		ServerArgs: h.serverArgs,
		WallS:      wall.Seconds(),
		Env:        readEnvironment(h.cfg.root),
		script:     h.script,
	}
	m := res.Metrics
	put := func(name string, v float64, n int) {
		m[name] = v
		res.Samples[name] = n
	}

	// End to end.
	var setups []float64
	for _, d := range h.setup {
		setups = append(setups, d.Seconds())
	}
	put("setup_s", median(setups), len(setups))
	ops := 0
	var rates, cpus []float64
	for _, b := range h.blocks {
		ops += b.ops
		rates = append(rates, float64(b.ops)/b.elapsed.Seconds())
		cpus = append(cpus, float64(b.cpu)*tickMS/float64(b.ops))
	}
	put("ops_per_s", quantile(rates, 0.75), ops)
	put("server_cpu_ms_per_op", quantile(cpus, 0.25), ops)
	// The median over the processes that served a repetition: the peak of
	// one process is a maximum already, and the maximum of several peaks
	// (seven incarnations on the durable workload) moves with GC timing.
	var peaks []float64
	for _, mb := range h.peakRSS {
		peaks = append(peaks, mb)
	}
	put("server_peak_rss_mb", median(peaks), len(peaks))
	// Counts, exact for a script: what the searches read, and what the
	// server put on the wire. They move with the code, not with the box.
	put("search_work_per_drill", float64(h.winWork)/float64(max(h.winDrills, 1)), h.winDrills)
	put("response_bytes_per_op", float64(h.winBytes)/float64(max(h.totalOps, 1)), h.totalOps)
	for name, class := range map[string]opClass{
		"create_p50_ms":      opCreate,
		"drill_root_p50_ms":  opDrillRoot,
		"drill_child_p50_ms": opDrillChild,
		"drill_star_p50_ms":  opDrillStar,
		"stream_done_p50_ms": opStream,
	} {
		put(name, quietP50(h.lat[class], h.perUnit(class)), len(h.lat[class]))
	}
	put("stream_first_rule_p50_ms", quietP50(h.firstRule, 1), len(h.firstRule))

	// Recorded, never gated: tails a median hides, the classes only some
	// workloads run, and the parts of the durable set-up.
	drills := h.pooled(drillClasses...)
	put("client.drill_p50_ms", median(drills), len(drills))
	put("client.drill_p99_ms", quantile(drills, 0.99), len(drills))
	roots := h.pooled(opDrillRoot)
	put("client.drill_root_max_ms", maxOf(roots), len(roots))
	for _, class := range []opClass{opDrillGC, opTree, opCollapse, opTraditional, opDelete, opResume} {
		if xs := h.pooled(class); len(xs) > 0 {
			put("client."+string(class)+"_p50_ms", median(xs), len(xs))
		}
	}
	if len(h.restart) > 0 {
		var rs []float64
		for _, d := range h.restart {
			rs = append(rs, d.Seconds())
		}
		put("client.restart_s", median(rs), len(rs))
	}
	if len(h.chk.relErr) > 0 {
		put("client.provisional_rel_err_p50", median(h.chk.relErr), len(h.chk.relErr))
	}
	cov, covOK := h.chk.coverage()
	if h.chk.ciTotal > 0 {
		put("client.ci_coverage", cov, h.chk.ciTotal)
	}
	put("search.hits", float64(h.cacheD.Hits), 1)
	put("search.misses", float64(h.cacheD.Misses), 1)
	put("search.singleflight_waits", float64(h.cacheD.SingleflightWaits), 1)
	for class, w := range h.wire {
		res.Wire[string(class)] = w
	}
	res.Latency = make(map[string]latencyRow)
	for class := range h.lat {
		xs := h.pooled(class)
		res.Latency[string(class)] = latencyRow{N: len(xs), Min: quantile(xs, 0), P10: quantile(xs, 0.1),
			P50: median(xs), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99), Max: maxOf(xs)}
	}

	// Run-wide checks. Each violation also counts as one failed operation,
	// so "failed = 0" alone says the run was clean.
	add := func(name string, ok bool, detail string) {
		res.Checks = append(res.Checks, check{Name: name, OK: ok, Detail: detail})
		if !ok {
			h.fail(name + ": " + detail)
		}
	}
	add("every op succeeded and every wire count equals the scan", h.failed == 0,
		fmt.Sprintf("%d of %d operations failed", h.failed, h.attempted))
	if h.w.noMisses {
		add("hot phase executes no search", h.cacheD.Misses == 0, fmt.Sprintf("cache misses %d", h.cacheD.Misses))
	}
	if h.w.noHits {
		add("cache-off server serves no hit", h.cacheD.Hits == 0, fmt.Sprintf("cache hits %d", h.cacheD.Hits))
	}
	if h.w.durable {
		add("no snapshot write failed", h.persistFailures == 0, fmt.Sprintf("persist_failures %d", h.persistFailures))
	}
	if h.w.sampled {
		add("95% intervals cover the scanned count", covOK && h.chk.ciTotal > 0,
			fmt.Sprintf("coverage %.3f over %d intervals (floor %.2f)", cov, h.chk.ciTotal, minCICoverage))
	}
	res.Attempted, res.Failed, res.Failures = h.attempted, h.failed, h.failures
	res.Correct = h.failed == 0
	return res
}

// contractLine is the last line of stdout: the result in the shape the
// benchmark driver reads, restricted to the metrics BENCHMARK.json lists
// for this kind of run. A listed metric the run did not compute is an
// error: silence would read as "no regression".
func contractLine(res *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv)}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not produce metric %s", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// report prints the human-readable result: every metric by name with unit
// and sample count, the wire work beside the wall times, and the checks.
func report(w io.Writer, res *result, bench *benchmarkFile) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, bench.EndToEnd...), bench.PerLayer...) {
		units[d.Name] = d.Unit
	}
	fmt.Fprintf(w, "\n== %s  seed %d  traced=%v  wall %.1fs  script %s\n", res.Workload, res.Seed, res.Traced, res.WallS, res.ScriptHash[:12])
	fmt.Fprintf(w, "   env: nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s\n",
		res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Kernel, res.Env.Commit)
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, gated := range []bool{true, false} {
		for _, name := range names {
			if strings.Contains(name, ".") == gated {
				continue // gated metrics are the undotted names; print them first
			}
			unit := units[name]
			if unit == "" {
				unit = unitOf(name)
			}
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\tn=%d\n", name, res.Metrics[name], unit, res.Samples[name])
		}
	}
	tw.Flush()
	classes := make([]string, 0, len(res.Wire))
	for c := range res.Wire {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		ww := res.Wire[c]
		fmt.Fprintf(w, "   wire %-12s ops=%d passes=%d rows=%d postings=%d bitmap_words=%d sampled_rows=%d hits=%d misses=%d\n",
			c, ww.Ops, ww.Passes, ww.RowsScanned, ww.PostingsRead, ww.BitmapWordsRead, ww.SampledRowsScanned, ww.CacheHits, ww.CacheMisses)
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s (%s)\n", mark, c.Name, c.Detail)
	}
	printLayerTables(w, res.Layers)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
}

// unitOf names the unit of a metric BENCHMARK.json does not list, from the
// suffix convention every metric name follows.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}
