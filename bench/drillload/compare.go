package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// verdict is how one (workload, metric) pair came out of a comparison.
type verdict string

const (
	same       verdict = "ok"
	regressed  verdict = "REGRESSION"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound: neither "same" nor "worse" is shown
)

// pairRow is one line of a comparison.
type pairRow struct {
	workload, metric string
	def              metricDef
	a, b             []float64
	spreadA, spreadB float64
	change           float64 // relative change of b's median in the worse direction (negative = better)
	verdict          verdict
}

func readResults(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// comparePairs applies each end-to-end metric's direction and bound to two
// sets of runs. A pair regresses when b's median is worse than a's by more
// than the bound; it is unresolved when either side's own spread exceeds
// the bound, unless every run of b reads better than every run of a.
func comparePairs(bench *benchmarkFile, a, b []*result) []pairRow {
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
		return out
	}
	var rows []pairRow
	for _, w := range bench.Workloads {
		for _, d := range bench.EndToEnd {
			row := pairRow{workload: w.Name, metric: d.Name, def: d,
				a: values(a, w.Name, d.Name), b: values(b, w.Name, d.Name)}
			if len(row.a) == 0 || len(row.b) == 0 {
				continue
			}
			row.spreadA, row.spreadB = spread(row.a), spread(row.b)
			ma, mb := median(row.a), median(row.b)
			if ma != 0 {
				row.change = (mb - ma) / ma
				if d.Better == "higher" {
					row.change = -row.change
				}
			}
			switch {
			case row.change > d.Bound:
				row.verdict = regressed
			case (row.spreadA > d.Bound || row.spreadB > d.Bound) && !allBetter(d, row.a, row.b):
				row.verdict = unresolved
			default:
				row.verdict = same
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	lo, hi := slices.Min(a), slices.Max(a)
	for _, v := range b {
		if d.Better == "higher" && v <= hi || d.Better != "higher" && v >= lo {
			return false
		}
	}
	return true
}

func printPairs(w io.Writer, rows []pairRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A [q1 q3]\tmedian B [q1 q3]\tspread A\tspread B\tworse by\tbound\tverdict")
	for _, r := range rows {
		a1, a3 := quartiles(r.a)
		b1, b3 := quartiles(r.b)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g %.5g]\t%.5g [%.5g %.5g]\t%.1f%%\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.def.Unit, median(r.a), a1, a3, median(r.b), b1, b3,
			100*r.spreadA, 100*r.spreadB, 100*r.change, 100*r.def.Bound, r.verdict)
	}
	tw.Flush()
}

// compareFiles is drillload -compare: it exits non-zero (through the
// returned error) when any pair regressed.
func compareFiles(w io.Writer, bench *benchmarkFile, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	rows := comparePairs(bench, a, b)
	printPairs(w, rows)
	var bad []string
	for _, r := range rows {
		if r.verdict == regressed {
			bad = append(bad, r.workload+"/"+r.metric)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regression on %s", strings.Join(bad, ", "))
	}
	return nil
}

// boxNoise runs a fixed single-thread kernel (xorshift over an 8 MiB
// table: ALU, cache and memory together, nothing of this repository) in
// chunks of half a second and returns the spread of iterations per chunk
// and the slowest chunk as a share of the fastest. It says how steady the
// box itself is: no benchmark on it can agree with itself better than
// this, whatever it measures.
func boxNoise(chunks int) (spreadOfChunks, slowest float64) {
	x := uint64(88172645463325252)
	buf := make([]uint64, 1<<20)
	var per []float64
	for c := 0; c < chunks; c++ {
		n := 0
		for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; n++ {
			for i := 0; i < 100000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[x&(1<<20-1)] += x
			}
		}
		per = append(per, float64(n))
	}
	return spread(per), slices.Min(per) / slices.Max(per)
}

// writeNoise is the tail of drillload -aa: the runs of one invocation are
// split into the even and the odd ones (alternating, so a slow stretch of
// the box lands in both sets), compared as two commits would be, and the
// spreads written to bench/NOISE.md. The same code ran on both sides, so a
// pair whose spread over all runs exceeds its bound, or whose medians
// differ by more than its bound, shows the benchmark's own noise, and fails.
func writeNoise(w io.Writer, root string, bench *benchmarkFile, all []*result) error {
	var a, b []*result
	perRun := len(bench.Workloads)
	for i, r := range all {
		if (i/perRun)%2 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	rows := comparePairs(bench, a, b)
	printPairs(w, rows)

	var sb strings.Builder
	env := all[0].Env
	fmt.Fprintf(&sb, "# Same-code noise of the drillload benchmark\n\n")
	fmt.Fprintf(&sb, "Written by `bash bench/run.sh -aa %d`: %d runs of every workload with seeds %d…%d,\n", len(all)/perRun/2, len(all)/perRun, all[0].Seed, all[len(all)-1].Seed)
	fmt.Fprintf(&sb, "the even runs as set A and the odd runs as set B. Box: nproc=%d, %s, kernel %s, commit %s.\n\n", env.NumCPU, env.GoVersion, env.Kernel, env.Commit)
	floor, slowest := boxNoise(60)
	fmt.Fprintf(&sb, "The box itself, measured right after the runs: a fixed single-thread kernel in 60 half-second\nchunks did work per chunk with a spread of %.1f%%, its slowest chunk at %.0f%% of its fastest.\nThat is the floor under every spread below; nothing measured on this box can be steadier.\n\n", 100*floor, 100*slowest)
	fmt.Fprintf(&sb, "`spread` is (q3 − q1) / median over all runs of the pair, quartiles as Python's\n`statistics.quantiles(values, n=4)` gives them; `A→B` is how much worse set B's median is\nthan set A's in the metric's worse direction. A pair must keep its spread under its bound\n(the aim is a third of it; `setup_s` is exempt) and `A→B` under its bound.\n\n")
	fmt.Fprintf(&sb, "| workload | metric | unit | median | spread | bound | A→B | verdict |\n|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, r := range rows {
		both := append(append([]float64{}, r.a...), r.b...)
		sp := spread(both)
		v := string(same)
		switch {
		case sp > r.def.Bound && r.metric != "setup_s":
			// The driver holds set-up time to its bound between the two
			// sets only: a cold start is too short to repeat closely.
			v = "spread over bound"
		case r.change > r.def.Bound:
			v = "A→B over bound"
		}
		if v != string(same) {
			failed++
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %.5g | %.1f%% | %.0f%% | %+.1f%% | %s |\n",
			r.workload, r.metric, r.def.Unit, median(both), 100*sp, 100*r.def.Bound, 100*r.change, v)
	}
	// The timed readings are recorded, not gated; how far same-code runs
	// of them disagree on this box is the reason, and belongs on record.
	gated := map[string]bool{}
	for _, d := range bench.EndToEnd {
		gated[d.Name] = true
	}
	fmt.Fprintf(&sb, "\n## Recorded, not gated\n\nThe timed end-to-end readings of the same runs (quiet-block rule, bench/README.md). None of them\nholds a bound the driver accepts (at most 25%%) on this box reliably, so none is gated; they are\nprinted by every run and reported under `client.*` by the traced run.\n\n")
	fmt.Fprintf(&sb, "| workload | metric | median | spread | min | max |\n|---|---|---|---|---|---|\n")
	for _, w := range bench.Workloads {
		values := map[string][]float64{}
		for _, r := range all {
			if r.Workload != w.Name {
				continue
			}
			for name, v := range r.Metrics {
				if !gated[name] && !strings.Contains(name, ".") {
					values[name] = append(values[name], v)
				}
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[name]
			fmt.Fprintf(&sb, "| %s | %s | %.5g | %.1f%% | %.5g | %.5g |\n", w.Name, name, median(vs), 100*spread(vs), quantile(vs, 0), maxOf(vs))
		}
	}
	if err := os.WriteFile(filepath.Join(root, "bench", "NOISE.md"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d pairs did not hold their bound on identical code (see bench/NOISE.md)", failed, len(rows))
	}
	return nil
}
