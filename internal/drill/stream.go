package drill

import (
	"context"
	"time"

	"smartdrill/internal/search"
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
	return s.expand(ctx, n, s.cfg.Weighter, search.KindStream, maxRules, budget, onRule)
}
