package brs

import (
	"runtime"
	"sync"

	"smartdrill/internal/table"
)

// Parallel passes. A pass fans its work out in whole accumulators: an
// index pass gives each worker whole candidates — the siblings of a routed
// walk together — each walked into its own sums (indexPass), and the one
// row pass, Sum's level 1, gives each worker whole columns, each summed
// over every row (rowPass). No sum is ever split between workers, so each
// accumulates its rows in row order, as a serial run does, and nothing is
// merged but integer read counters. The split depends only on the pass
// size and worker count, never on goroutine scheduling, and results and
// Stats are bit-identical at any worker count, under Count and Sum alike.

// MaxWorkers caps the configured parallelism; beyond this, goroutine
// overheads outweigh any conceivable gain.
const MaxWorkers = 64

// workers resolves the configured parallelism. Workers 0 saturates the
// hardware, runtime.NumCPU(). An explicit request is honored (capped at
// MaxWorkers) rather than clamped to NumCPU — oversubscription is harmless,
// and honoring the request keeps the parallel code paths exercised on
// single-core machines.
func (rn *runner) workers() int {
	w := rn.par
	if w == 0 {
		w = runtime.NumCPU()
	}
	return max(1, min(w, MaxWorkers))
}

// passWorkers is how many workers an index pass over n candidates runs on:
// one where the workers are one or the pass is under four candidates a
// worker, otherwise one per non-empty chunk of ⌈n/workers⌉ — the chunks
// fanOut cuts. A pass sizes its per-worker state by it, so no worker that
// never runs gets a copy.
func (rn *runner) passWorkers(n int) int {
	w := rn.workers()
	if w == 1 || n < 4*w {
		return 1
	}
	chunk := (n + w - 1) / w
	return (n + chunk - 1) / chunk
}

// fanOut splits [0, n) into at most nw contiguous chunks — exactly
// passWorkers(n)'s when nw is that — and runs fn(lo, hi, worker) on each
// concurrently. With one worker it simply calls fn inline, so serial
// behaviour (and profiling) is unchanged.
func fanOut(n, nw int, fn func(lo, hi, worker int)) {
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

// balance cuts units that visit rows[u] rows each, in order, into nw
// contiguous runs of about equal rows — a unit goes to the run whose share
// of the total holds the middle of its rows, each unit counted one row
// more, so that units of no rows still spread — and returns where each run
// starts, and then len(rows). Like fanOut's chunks, the cut depends only
// on its inputs, never on scheduling.
func balance(rows []int64, nw int) []int {
	var total int64
	for _, r := range rows {
		total += r + 1
	}
	runs := make([]int, nw+1)
	for g := 1; g <= nw; g++ {
		runs[g] = len(rows)
	}
	next, done := 1, int64(0) // the next run whose start is still to find; the rows before unit u
	for u, r := range rows {
		for g := min(nw-1, int((2*done+r+1)*int64(nw)/(2*total))); next <= g; next++ {
			runs[next] = u
		}
		done += r + 1
	}
	return runs
}

// pollStride is how many rows a row pass's worker reads between two polls
// of the run's context; an index pass polls before each unit.
const pollStride = 4096

// latch keeps the first context error a pass's worker saw.
func (rn *runner) latch(cut error) {
	if cut != nil && rn.ctxErr == nil {
		rn.ctxErr = cut
	}
}

// rowPass is the one pass that reads rows: under Sum, the base's
// expansion, level 1, which books every row's mass into accs, one
// accumulator a free column within mw. Workers take whole accumulators,
// never rows. Each worker reads every row through Table.EachRow, polls the
// context after every pollStride rows and stops at the first poll that
// fires; the pass latches that error. It books one pass, the rows of the
// worker that read furthest, and the cells every worker booked.
func (rn *runner) rowPass(accs []extAcc) {
	nw := min(rn.workers(), len(accs))
	tallies := make([]struct {
		read  table.Tally
		cells int64
		cut   error
	}, nw)
	fanOut(len(accs), nw, func(lo, hi, g int) {
		t, mine := &tallies[g], accs[lo:hi]
		rn.tab.EachRow(&t.read, func(row int) bool {
			t.cells += rn.bookRow(mine, row)
			if (row+1)%pollStride != 0 {
				return true
			}
			t.cut = rn.fired()
			return t.cut == nil
		})
	})
	var rows int64
	for _, t := range tallies {
		rows = max(rows, t.read.Rows)
		rn.stats.CellsBooked += t.cells
		rn.latch(t.cut)
	}
	rn.stats.Book(rows, 0, 0)
	rn.stats.Passes++
}
