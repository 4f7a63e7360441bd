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
// rule's Count; MCount is the marginal mass at selection time.
func RunIncremental(v *table.View, w weight.Weighter, opts Options, maxRules int, deadline time.Time, yield Yield) (Stats, error) {
	return RunIncrementalCtx(context.Background(), v, w, opts, maxRules, deadline, yield)
}

// RunIncrementalCtx is RunIncremental under a cancellation context: the
// search checks ctx between counting passes and returns ctx's error (with
// the statistics of the work already done) when it fires. Rules already
// yielded stay yielded — cancellation stops future work, it does not
// retract results.
func RunIncrementalCtx(ctx context.Context, v *table.View, w weight.Weighter, opts Options, maxRules int, deadline time.Time, yield Yield) (Stats, error) {
	if opts.K <= 0 {
		opts.K = 1 // K is unused by the incremental driver but validated by shared code paths
	}
	run, err := newRunner(v, w, opts)
	if err != nil {
		return Stats{}, err
	}
	run.ctx = ctx
	firstGain := 0.0
	for step := 0; maxRules <= 0 || step < maxRules; step++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) { //sdlint:allow nondeterminism anytime deadline: the clock decides when to stop emitting rules, never which rule is emitted or its count
			break
		}
		best := run.findBestMarginal()
		if run.ctxErr != nil {
			return run.finalStats(), run.ctxErr
		}
		if best == nil || best.marginal <= 0 {
			break
		}
		gain := best.marginal // applySelection zeroes it
		if step == 0 {
			firstGain = gain
		} else if opts.MinGainRatio > 0 && gain < opts.MinGainRatio*firstGain {
			break // diminishing returns: stop flooding the display
		}
		run.applySelection(best)
		ok := yield(Result{
			Rule:   best.r,
			Weight: best.weight,
			Count:  best.count * run.scale,
			MCount: gain / weightOrOne(best.weight) * run.scale,
		})
		if !ok {
			break
		}
	}
	return run.finalStats(), nil
}

// weightOrOne guards the MCount back-calculation (marginal = Σ (W−wS) per
// tuple; when nothing was previously selected this is W·MCount, so divide
// by W). For multi-step selections the quotient is only an upper bound on
// the true marginal count; callers needing exact MCounts should use
// score.MCounts on the final list, as Run does.
func weightOrOne(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

func errBaseArity(got, want int) error {
	return fmt.Errorf("brs: base rule has %d columns, table has %d", got, want)
}
