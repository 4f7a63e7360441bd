package drill

import (
	"context"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/search"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Anytime expansion (Section 6.1): instead of fixing k, stream rules into
// the displayed tree as the greedy search finds them, stopping on a time
// budget or when the caller has seen enough. The paper suggests "display
// as many rules as we can find within a time limit (of say 5 seconds)".

// ExpandStream expands n, invoking onRule for every rule as it is found
// and appending it to n's children immediately. The search stops when
// onRule returns false, after maxRules rules (0 = unbounded), when budget
// elapses (0 = unbounded), or when no rule adds value. onRule may be nil.
func (s *Session) ExpandStream(n *Node, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	return s.ExpandStreamCtx(context.Background(), n, maxRules, budget, onRule)
}

// ExpandStreamCtx is ExpandStream under a cancellation context: the BRS
// search additionally checks ctx between counting passes and aborts with
// ctx's error — an abandoned connection stops the search even while it is
// mid-way to its next rule. Rules streamed before the cancellation stay in
// the tree (they were already shown), the partial search's statistics are
// recorded, and the session remains fully usable.
func (s *Session) ExpandStreamCtx(ctx context.Context, n *Node, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	return s.expandStream(ctx, n, s.cfg.Weighter, maxRules, budget, onRule)
}

func (s *Session) expandStream(ctx context.Context, n *Node, w weight.Weighter, maxRules int, budget time.Duration, onRule func(*Node) bool) error {
	if n.Expanded() {
		s.Collapse(n)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	degraded := DegradedFrom(ctx)

	req := s.searchRequest(search.KindStream, n.Rule, w, degraded)
	req.MaxRules = maxRules
	req.MinGainRatio = 0.01 // drop the long tail of near-worthless rules
	if budget > 0 {
		// A deadline-bounded stream can truncate anywhere, so the service
		// runs it directly — never cached, never joined by singleflight.
		// Budget-free streams run to completion and are cached like batch
		// expansions, replayed rule by rule through the same yield.
		req.Deadline = time.Now().Add(budget)
	}
	// scale/exact/bound are owned by the resolve closure: on a cache hit it
	// never runs and the replayed results are exact with scale 1 — matching
	// the initial values below.
	scale, exact, bound := 1.0, true, float64(s.tab.NumRows())
	req.Resolve = func() (*table.View, float64, bool, error) {
		v, sc, ex, err := s.coveredView(n.Rule, degraded)
		if err == nil {
			scale, exact = sc, ex
			bound = sc * float64(v.NumRows()) // the enclosing view's scaled size
		}
		return v, sc, ex, err
	}
	req.MaxWeightFor = func(v *table.View) float64 {
		// Probe with the number of rules this stream will actually request
		// — maxRules when bounded, else the session's configured k (as
		// batch Expand does) — so the weight cap fits the rule list being
		// built rather than a differently-sized one. The probe runs before
		// the stream's deadline exists and its cost grows with k, so a
		// caller-supplied maxRules (e.g. a client's max_rules query
		// parameter) is capped: past a screenful of rules the max-weight
		// estimate has long saturated.
		const maxProbeK = 100
		probeK := s.cfg.K
		if maxRules > 0 {
			probeK = maxRules
		}
		if probeK > maxProbeK {
			probeK = maxProbeK
		}
		return estimateMaxWeight(ctx, v, w, probeK, s.cfg.Seed)
	}
	req.Yield = func(r brs.Result) bool {
		child := &Node{
			Rule:   r.Rule,
			Weight: r.Weight,
			Count:  r.Count,
			Exact:  exact,
			parent: n,
		}
		child.CILow, child.CIHigh, child.HasCI = countCI(s.cfg.Agg, exact, scale, r.Count, bound)
		s.adopt(child)
		n.Children = append(n.Children, child)
		if onRule == nil {
			return true
		}
		return onRule(child)
	}
	resp, err := s.svc.Run(ctx, req)
	if resp.Cached {
		s.LastMethod = "cache"
	}
	// Record even a canceled search's statistics: the aborted passes are
	// real work the session's accounting must show.
	s.recordStats(resp.Stats)
	return err
}
