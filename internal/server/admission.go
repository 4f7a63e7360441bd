package server

import (
	"context"
	"net/http"
	"time"

	"smartdrill"
	"smartdrill/internal/spans"
)

// Admission control: work endpoints (session create, drill, collapse,
// refine, traditional, stream) pass through a concurrency limiter before
// any engine work runs. The overload ladder has three rungs:
//
//  1. full speed — a slot is free, the request runs normally;
//  2. degraded — slots are scarce (in-use ≥ degradeFraction of the cap):
//     the request still runs, but its context is marked degraded, which
//     forces sampled sessions down the provisional pipeline and skips
//     background refinement/prefetch (cheap answers before shed load);
//  3. shed — every slot stayed busy for the whole AdmissionWait: the
//     request is rejected with 429 overloaded + Retry-After, having cost
//     the server nothing. A shed request never started executing, so
//     clients (the SDK included) may retry it safely regardless of
//     method.
//
// Cheap read endpoints (health, datasets, tree, delete) bypass admission
// so probes and dashboards keep working while the server sheds work.
type admission struct {
	slots     chan struct{} // buffered to the concurrency cap
	wait      time.Duration // max queueing time before shedding
	degradeAt int           // in-use count at/above which requests run degraded
}

// retryAfter is the Retry-After hint of a shed (429) response.
const retryAfter = time.Second

func newAdmission(maxConcurrent int, wait time.Duration, degradeFraction float64) *admission {
	degradeAt := int(float64(maxConcurrent)*degradeFraction + 0.5)
	if degradeAt < 1 {
		degradeAt = 1
	}
	return &admission{
		slots:     make(chan struct{}, maxConcurrent),
		wait:      wait,
		degradeAt: degradeAt,
	}
}

// acquire claims a concurrency slot, queueing up to the admission wait.
// ok=false means the request must be shed; otherwise release returns the
// slot and degraded reports whether the ladder's middle rung applies.
func (a *admission) acquire(ctx context.Context) (release func(), degraded, ok bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		timer := time.NewTimer(a.wait)
		defer timer.Stop()
		select {
		case a.slots <- struct{}{}:
		case <-timer.C:
			return nil, false, false
		case <-ctx.Done():
			return nil, false, false
		}
	}
	return func() { <-a.slots }, len(a.slots) >= a.degradeAt, true
}

// withAdmission is the admission + degradation + deadline middleware for
// one work endpoint. stream marks SSE endpoints, which keep their slot
// for the whole stream but are exempt from the per-request deadline (the
// anytime budget already bounds their search; a blanket deadline would
// cut long-lived streams mid-event).
func (s *Server) withAdmission(stream bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adm != nil {
			start := time.Now()
			release, degraded, ok := s.adm.acquire(r.Context())
			spans.Since(r.Context(), spans.Admit, start)
			if !ok {
				writeOverloaded(w)
				return
			}
			defer release()
			if degraded {
				r = r.WithContext(smartdrill.WithDegraded(r.Context()))
			}
		}
		if !stream && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}
