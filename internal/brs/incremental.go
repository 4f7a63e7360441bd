package brs

import (
	"context"
	"fmt"
	"time"

	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Incremental operation (Section 6.1): BRS is greedy, so the best rule
// list of size k+1 extends the best list of size k by one rule. Instead of
// fixing k up front, a caller can stream rules as they are found and stop
// on its own criterion — the paper suggests stopping on a new user command
// or a time limit and displaying whatever has been found.

// Yield receives each selected rule in greedy selection order (not display
// order) immediately after its greedy step completes. Returning false
// stops the search.
type Yield func(Result) bool

// RunIncremental runs greedy steps until yield returns false, the optional
// deadline passes, maxRules rules have been emitted (0 = unbounded), no
// rule adds positive marginal value, or the marginal value falls below
// MinGainRatio of the first rule's. The Result passed to yield carries the
// rule's Count and its marginal mass at selection, MCount (see Result); Run
// with K = maxRules returns the same Results, sorted into display order,
// wherever no MinGainRatio cut the stream short.
func RunIncremental(v *table.View, w weight.Weighter, opts Options, maxRules int, deadline time.Time, yield Yield) (Stats, error) {
	return RunIncrementalCtx(context.Background(), v, w, opts, maxRules, deadline, yield)
}

// RunIncrementalCtx is RunIncremental under a cancellation context: the
// search checks ctx between and inside counting passes, as RunCtx does, and
// returns ctx's error (with the statistics of the work already done) when
// it fires. Rules already yielded stay yielded — cancellation stops future
// work, it does not retract results — and the step it cut yields none.
func RunIncrementalCtx(ctx context.Context, v *table.View, w weight.Weighter, opts Options, maxRules int, deadline time.Time, yield Yield) (Stats, error) {
	run, err := newRunner(v, w, opts)
	if err != nil {
		return Stats{}, err
	}
	run.ctx = ctx
	err = run.greedy(maxRules, deadline, opts.MinGainRatio, yield)
	return run.finalStats(), err
}

func errBaseArity(got, want int) error {
	return fmt.Errorf("brs: base rule has %d columns, table has %d", got, want)
}
