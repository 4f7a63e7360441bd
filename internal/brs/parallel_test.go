package brs

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"smartdrill/internal/score"
	"smartdrill/internal/weight"
)

// TestParallelMatchesSerial verifies that parallel runs produce exactly
// the same rules, counts, and marginals as serial runs — the Count
// aggregate keeps all accumulators integral, so results are bit-identical.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		tab := randomTable(rng, 5, 4, 500)
		w := weight.BitsFor(tab)
		serial, _, err := Run(tab.All(), w, Options{K: 4, MaxWeight: 12})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 11} {
			par, _, err := Run(tab.All(), w, Options{K: 4, MaxWeight: 12, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("trial %d workers=%d: %d rules vs serial %d",
					trial, workers, len(par), len(serial))
			}
			for i := range serial {
				if !par[i].Rule.Equal(serial[i].Rule) {
					t.Fatalf("trial %d workers=%d: rule %d differs: %v vs %v",
						trial, workers, i, par[i].Rule, serial[i].Rule)
				}
				if par[i].Count != serial[i].Count || par[i].MCount != serial[i].MCount {
					t.Fatalf("trial %d workers=%d: stats differ for %v: (%g,%g) vs (%g,%g)",
						trial, workers, par[i].Rule,
						par[i].Count, par[i].MCount, serial[i].Count, serial[i].MCount)
				}
			}
		}
	}
}

// TestParallelWithSelection exercises the topW raise (non-empty selection)
// under parallelism.
func TestParallelWithSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tab := randomTable(rng, 4, 3, 300)
	w := weight.NewSize(4)
	serial, _, err := Run(tab.All(), w, Options{K: 5, MaxWeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Run(tab.All(), w, Options{K: 5, MaxWeight: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ss := score.SetScore(tab, w, score.CountAgg{}, rulesOf(serial))
	sp := score.SetScore(tab, w, score.CountAgg{}, rulesOf(par))
	if ss != sp {
		t.Fatalf("parallel score %g != serial %g", sp, ss)
	}
}

// TestParallelRowsCoversAllRows: fanOut hands every item of a pass —
// candidates, or a row pass's columns — to exactly one worker, and every
// worker passWorkers sized state for runs.
func TestParallelRowsCoversAllRows(t *testing.T) {
	rn := &runner{par: 8}
	// 33 items: chunks of 5 fill seven workers, not eight.
	for _, n := range []int{0, 1, 7, 32, 33, 64, 1000} {
		visited := make([]int32, n)
		nw := rn.passWorkers(n)
		ran := make([]bool, nw)
		fanOut(n, nw, func(lo, hi, g int) {
			ran[g] = true
			for i := lo; i < hi; i++ {
				visited[i]++
			}
		})
		for g, ok := range ran {
			if !ok {
				t.Fatalf("n=%d: worker %d of the %d passWorkers sized state for never ran", n, g, nw)
			}
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("n=%d: item %d visited %d times", n, i, v)
			}
		}
	}
}

// TestBalanceCutsRunsOfEqualRows: balance cuts units into nw contiguous
// runs that together hold every unit once, each run holding the units
// whose middle row falls in its share: units of no rows spread like
// fanOut's chunks, and one heavy unit takes a run of its own.
func TestBalanceCutsRunsOfEqualRows(t *testing.T) {
	for _, tc := range []struct {
		rows []int64
		nw   int
		want []int
	}{
		{make([]int64, 8), 2, []int{0, 4, 8}},
		{make([]int64, 7), 1, []int{0, 7}},
		{[]int64{1, 1, 1, 1, 100, 1, 1}, 2, []int{0, 4, 7}},
		{[]int64{100, 1, 1, 1, 1, 1, 1}, 2, []int{0, 1, 7}},
		{[]int64{10, 10, 10, 10, 10, 10, 10, 10}, 4, []int{0, 2, 4, 6, 8}},
		{[]int64{1000, 0, 0}, 4, []int{0, 0, 1, 1, 3}},
	} {
		if got := balance(tc.rows, tc.nw); !slices.Equal(got, tc.want) {
			t.Errorf("balance(%v, %d) = %v, want %v", tc.rows, tc.nw, got, tc.want)
		}
	}
}

// TestParallelDeterministicMerge pins the merge contract: the chunk split
// depends only on (pass size, worker count) and no worker takes a share of
// another's sum, so the same parallel search repeated under
// GOMAXPROCS jitter — forcing wildly different goroutine schedules, from
// fully serialized to oversubscribed — yields byte-identical rule output
// AND identical statistics counters every single time. A scheduling
// dependence anywhere (a racy merge, a nondeterministic plan choice, a
// first-worker-wins cache fill) shows up as a diff here long before it
// corrupts an answer.
func TestParallelDeterministicMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomTable(rng, 5, 4, 700)
	w := weight.BitsFor(tab)
	opts := Options{K: 5, MaxWeight: 12, Workers: 8}

	render := func(rs []Result) string {
		s := ""
		for _, r := range rs {
			s += fmt.Sprintf("%v w=%b c=%b m=%b\n", r.Rule, r.Weight, r.Count, r.MCount)
		}
		return s
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var wantOut string
	var wantStats Stats
	for i := 0; i < 50; i++ {
		runtime.GOMAXPROCS(1 + i%4)
		got, stats, err := Run(tab.All(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := render(got)
		if i == 0 {
			wantOut, wantStats = out, stats
			if stats.IndexLevels == 0 {
				t.Fatalf("run never used the index kernels: %+v", stats)
			}
			sameResults(t, "parallel vs the oracle", got, oracleRun(tab.All(), w, opts))
			continue
		}
		if out != wantOut {
			t.Fatalf("run %d (GOMAXPROCS=%d) output differs:\n%s\nwant:\n%s",
				i, runtime.GOMAXPROCS(0), out, wantOut)
		}
		if stats != wantStats {
			t.Fatalf("run %d (GOMAXPROCS=%d) stats differ:\n%+v\nwant:\n%+v",
				i, runtime.GOMAXPROCS(0), stats, wantStats)
		}
	}
}

func TestWorkersClamped(t *testing.T) {
	rn := &runner{par: 1 << 20}
	if got := rn.workers(); got != MaxWorkers {
		t.Fatalf("workers = %d, want cap %d", got, MaxWorkers)
	}
	rn.par = 0
	if got, want := rn.workers(), min(runtime.NumCPU(), MaxWorkers); got != want {
		t.Fatalf("0 workers = %d, want every CPU, %d", got, want)
	}
	rn.par = -3
	if rn.workers() != 1 {
		t.Fatal("negative workers must mean serial")
	}
	rn.par = 5
	if rn.workers() != 5 {
		t.Fatal("explicit worker counts must be honored")
	}
}
