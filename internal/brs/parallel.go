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

// workers resolves the configured parallelism. Reference forces serial.
// Workers 0 saturates the hardware — runtime.NumCPU() under the Count
// aggregate, serial otherwise (auto-parallelism only where bit-identity
// to the serial path is guaranteed). An explicit request is
// honored (capped at MaxWorkers) rather than clamped to NumCPU —
// oversubscription is harmless, and honoring the request keeps the
// parallel code paths exercised on single-core machines.
func (rn *runner) workers() int {
	if rn.reference {
		return 1
	}
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

// parallelRows splits [0, n) into one contiguous chunk per worker and runs
// fn(lo, hi, worker) concurrently. With a single worker it simply calls fn
// inline, so serial behaviour (and profiling) is unchanged.
func (rn *runner) parallelRows(n int, fn func(lo, hi, worker int)) {
	w := rn.workers()
	if w == 1 || n < 4*w {
		fn(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for g := 0; g < w; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
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
