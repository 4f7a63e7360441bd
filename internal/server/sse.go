package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// handleDrillStream implements the paper's anytime drill-down (Section 6.1)
// over Server-Sent Events: rules are pushed to the client the moment the
// greedy search finds them, and the search stops on a time budget rather
// than a fixed k — "display as many rules as we can find within a time
// limit (of say 5 seconds)".
//
// Query parameters:
//
//	node       stable node ID of the target (default root)
//	budget_ms  search budget in milliseconds (default Config.StreamBudget,
//	           capped at maxStreamBudget)
//	max_rules  stop after this many rules (default 0 = budget-bound only)
//
// Events: one api.EventRule per discovered rule carrying the child's
// api.Node. When the search answered from a sample (large views on a
// sampled session), rule counts are provisional estimates with confidence
// intervals; after the search the stream re-counts each provisional rule
// exactly and pushes one api.EventRefine per rule — the same api.Node with
// the exact count, exact:true, and no CI — so the display converges to
// authoritative numbers without a new request. A single api.EventDone with
// summary statistics ends the stream.
//
// The request context rides into the BRS search: a client disconnect
// cancels the search between counting passes (not merely at the next rule
// boundary) and stops any pending refinement; the done event then carries
// error_code "canceled".
func (s *Server) handleDrillStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	nodeID := q.Get("node")
	budget, fail := streamBudget(q.Get("budget_ms"), s.cfg.StreamBudget)
	if fail != nil {
		writeError(w, fail.Code, fail.Message)
		return
	}
	maxRules := 0
	if raw := q.Get("max_rules"); raw != "" {
		n, err := strconv.Atoi(raw)
		switch {
		case err != nil:
			writeError(w, api.ErrBadRequest, fmt.Sprintf("max_rules must be a non-negative integer, got %q", raw))
			return
		case n < 0:
			writeError(w, api.ErrBudget, fmt.Sprintf("max_rules must be a non-negative integer, got %q", raw))
			return
		}
		maxRules = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.ErrInternal, "response writer does not support streaming")
		return
	}

	// The search phase is one visit through the session's door, held for its
	// whole (budgeted) duration: a concurrent drill would mutate the tree
	// under the running incremental search. Rule events are flushed from
	// inside it, the moment the search finds them. When the visit returns
	// the tree is on disk — even a stream that found no rule has collapsed
	// the node it re-drills.
	ctx := r.Context()
	var (
		start  time.Time
		err    error
		rules  int
		access string
		// provisional lists the children streamed with a sample estimate.
		provisional []*smartdrill.Node
	)
	if !visitNode(w, r, sess, nodeID, func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()

		start = time.Now()
		err = e.DrillDownStreamCtx(ctx, n, maxRules, budget, func(child *smartdrill.Node) bool {
			if !child.Exact {
				provisional = append(provisional, child)
			}
			writeSSE(w, api.EventRule, encodeNode(e, child))
			flusher.Flush()
			rules++
			return true
		})
		access = e.LastAccessMethod()
		return nil
	}) {
		return
	}

	// Refinement phase: replace every provisional count the search just
	// streamed with the exact one (one accounted pass per rule), pushing a
	// refine event as each lands. The analyst saw provisional rules within
	// the interactive budget; the authoritative counts follow on the same
	// connection. Unlike the search, refinement is one visit per node (the
	// background refiner's discipline), so concurrent requests on this
	// session interleave with the passes instead of queueing behind them —
	// RefineNode skips exact children and any child a concurrent drill
	// orphans — and each exact count is on disk before its event is sent.
	refined := 0
	if err == nil {
		for _, child := range provisional {
			if ctx.Err() != nil {
				break // client went away; stop paying for passes
			}
			var payload *api.Node
			sess.do(ctx, func(e *smartdrill.Engine) {
				// A child the stream's own prefetch already upgraded owes
				// the client its exact count just the same.
				if e.RefineNode(child) || child.Exact {
					payload = encodeNode(e, child)
				}
			})
			if payload != nil {
				writeSSE(w, api.EventRefine, payload)
				flusher.Flush()
				refined++
			}
		}
	}
	done := api.DoneEvent{
		Rules:     rules,
		Refined:   refined,
		Access:    access,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if err != nil {
		done.Error = err.Error()
		done.ErrorCode = api.ErrInternal
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			done.ErrorCode = api.ErrCanceled
		}
	}
	writeSSE(w, api.EventDone, done)
	flusher.Flush()
}

// streamBudget parses a stream's budget_ms (raw, empty for the server's
// default def) and caps it at maxStreamBudget. The cap is taken in
// milliseconds, before the conversion to a Duration, whose multiplication
// would wrap for a large enough count.
func streamBudget(raw string, def time.Duration) (time.Duration, *api.Error) {
	if raw == "" {
		return min(def, maxStreamBudget), nil
	}
	ms, err := strconv.Atoi(raw)
	switch {
	case err != nil: // malformed, not out of range
		return 0, &api.Error{Code: api.ErrBadRequest, Message: fmt.Sprintf("budget_ms must be a positive integer, got %q", raw)}
	case ms <= 0:
		return 0, &api.Error{Code: api.ErrBudget, Message: fmt.Sprintf("budget_ms must be a positive integer, got %q", raw)}
	}
	return time.Duration(min(ms, int(maxStreamBudget/time.Millisecond))) * time.Millisecond, nil
}

// writeSSE emits one event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		payload = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload)
}
