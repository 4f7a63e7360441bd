package drill

import "context"

// Degraded mode is the serving layer's graceful-degradation ladder: under
// admission pressure a request marked degraded trades answer exactness for
// latency *before* the server sheds load. The flag rides the request
// context — the same channel cancellation already travels — so it reaches
// the expansion routing without new plumbing through every call site.
//
// Effects inside an expansion:
//
//   - a session with a sample handler routes the expansion through the
//     sampled/provisional pipeline regardless of SampleThreshold, so the
//     answer costs a sample pass instead of full table passes;
//   - post-expansion prefetch (sample reallocation) is skipped — it is
//     pure background work the overloaded server cannot afford.
//
// Sessions without sampling configured have no cheaper path to fall back
// to: their drills are exact and use the answer cache like any other, and
// the serving layer separately skips background refinement.

// degradedKey marks a context as degraded.
type degradedKey struct{}

// WithDegraded returns a context whose expansions run in degraded mode.
func WithDegraded(ctx context.Context) context.Context {
	return context.WithValue(ctx, degradedKey{}, true)
}

// DegradedFrom reports whether ctx is marked degraded.
func DegradedFrom(ctx context.Context) bool {
	v, _ := ctx.Value(degradedKey{}).(bool)
	return v
}
