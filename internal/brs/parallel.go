package brs

import (
	"runtime"
	"sync"
)

// Parallel row processing. BRS's passes are embarrassingly parallel over
// rows (and, for index-driven counting, over candidates): each pass
// accumulates per-candidate counts/marginals, so workers process disjoint
// chunks into private accumulators that are merged in worker order at the
// pass boundary. The chunk split depends only on the pass size and worker
// count — never on goroutine scheduling — so a given (data, Workers)
// configuration always merges in the same order and results are
// deterministic. With the Count aggregate all accumulators hold integral
// values, so parallel runs are additionally bit-identical to serial ones;
// with Sum, floating-point addition order may differ in the last ulps,
// which is why automatic parallelism applies only under Count.

// MaxWorkers caps the configured parallelism; beyond this, goroutine and
// accumulator-merge overheads outweigh any conceivable gain.
const MaxWorkers = 64

// workers resolves the configured parallelism. Workers 0 saturates the
// hardware — runtime.NumCPU() under the Count aggregate, serial otherwise
// (auto-parallelism only where bit-identity to the serial path is
// guaranteed). An explicit request is honored (capped at MaxWorkers) rather
// than clamped to NumCPU — oversubscription is harmless, and honoring the
// request keeps the parallel code paths exercised on single-core machines.
func (rn *runner) workers() int {
	w := rn.par
	if w == 0 {
		if !rn.countAgg {
			return 1
		}
		w = runtime.NumCPU()
	}
	if w <= 1 {
		return 1
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	return w
}

// rowWorkers is how many workers a pass over n rows (or candidates) runs
// on: one where the workers are one or the pass is under four items a
// worker, otherwise one per non-empty chunk of ⌈n/workers⌉ — the chunks
// parallelRows cuts. A pass sizes its per-worker state by it, so no worker
// that never runs gets a copy.
func (rn *runner) rowWorkers(n int) int {
	w := rn.workers()
	if w == 1 || n < 4*w {
		return 1
	}
	chunk := (n + w - 1) / w
	return (n + chunk - 1) / chunk
}

// parallelRows splits [0, n) into at most nw contiguous chunks — exactly
// rowWorkers(n)'s when nw is that — and runs fn(lo, hi, worker) on each
// concurrently. With one worker it simply calls fn inline, so serial
// behaviour (and profiling) is unchanged.
func (rn *runner) parallelRows(n, nw int, fn func(lo, hi, worker int)) {
	if nw <= 1 {
		fn(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for g := 0; g < nw; g++ {
		lo := g * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, g int) {
			defer wg.Done()
			fn(lo, hi, g)
		}(lo, hi, g)
	}
	wg.Wait()
}

// pollStride is how many rows a row pass's worker reads between two polls
// of the run's context; an index pass polls before each candidate.
const pollStride = 4096

// polled splits [0, n) into nw worker chunks (parallelRows) and hands each
// chunk to fn(lo, hi, g) stride items a call, ascending. A worker polls the
// context before each call and stops at the first poll that fires; polled
// latches that error before it returns how many items the workers covered.
func (rn *runner) polled(n, nw, stride int, fn func(lo, hi, g int)) (covered int64) {
	tallies := make([]struct {
		covered int64
		cut     error
	}, nw)
	rn.parallelRows(n, nw, func(lo, hi, g int) {
		t := &tallies[g]
		for ; lo < hi; lo += stride {
			if t.cut = rn.fired(); t.cut != nil {
				return
			}
			end := min(lo+stride, hi)
			fn(lo, end, g)
			t.covered += int64(end - lo)
		}
	})
	for _, t := range tallies {
		covered += t.covered
		if t.cut != nil && rn.ctxErr == nil {
			rn.ctxErr = t.cut
		}
	}
	return covered
}
