package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// Wire encoding: the server speaks the api package's v1 DTOs exclusively —
// every response body (and SSE payload) is an api type, so the contract
// clients compile against is exactly what travels.

// encodeNode converts a displayed subtree to wire form.
func encodeNode(e *smartdrill.Engine, n *smartdrill.Node) *api.Node {
	t := e.Table()
	cells := t.DecodeRule(n.Rule)
	ruleMap := make(map[string]string)
	for _, c := range n.Rule.InstantiatedColumns() {
		ruleMap[t.ColumnNames()[c]] = cells[c]
	}
	out := &api.Node{
		ID:      e.NodeID(n),
		Rule:    ruleMap,
		Display: cells,
		Count:   n.Count,
		Exact:   n.Exact,
		Weight:  n.Weight,
	}
	// HasCI distinguishes a genuine interval (possibly [0, 0]) from "no
	// interval support" (exact counts, Sum estimates): only the former is
	// put on the wire.
	if !n.Exact && n.HasCI {
		out.CI = &[2]float64{n.CILow, n.CIHigh}
	}
	for _, child := range n.Children {
		out.Children = append(out.Children, encodeNode(e, child))
	}
	return out
}

// encodeTree converts a session's full displayed tree to wire form, inside
// the session's door.
func encodeTree(sess *session, e *smartdrill.Engine) *api.Tree {
	return &api.Tree{
		ID:        sess.id,
		Dataset:   sess.dataset,
		Columns:   e.Table().ColumnNames(),
		Aggregate: e.AggregateName(),
		K:         e.K(),
		Root:      encodeNode(e, e.Root()),
		Rendered:  e.Render(),
	}
}

// encodeStats copies the engine's BRS counters to their wire mirror: every
// counter but CellsBooked, which stays in process
// (TestSearchStatsMirror holds the two definitions in step).
func encodeStats(s smartdrill.SearchStats) *api.SearchStats {
	return &api.SearchStats{
		Passes:             s.Passes,
		CandidatesCounted:  s.CandidatesCounted,
		CandidatesPruned:   s.CandidatesPruned,
		CandidatesReused:   s.CandidatesReused,
		RowsScanned:        s.RowsScanned,
		PostingsRead:       s.PostingsRead,
		BitmapWordsRead:    s.BitmapWordsRead,
		IndexLevels:        s.IndexLevels,
		CandidateCapHit:    s.CandidateCapHit,
		SampledRowsScanned: s.SampledRowsScanned,
		CacheHits:          s.CacheHits,
		CacheMisses:        s.CacheMisses,
		SingleflightWaits:  s.SingleflightWaits,
	}
}

// encodeJSON is the wire form of every response body: compact JSON from one
// marshal, ended by one newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// writeBody sends a body the server already holds whole, so its length goes
// out with it and net/http never frames it in chunks.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client went away; nothing to do
}

// writeJSON writes v with the given status. v is encoded before the status
// goes out: a value encoding/json refuses (a NaN or infinite count) is a
// logged 500 internal, not a success status over an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		s.cfg.Logger.Printf("encoding %T for a %d response: %v", v, status, err)
		writeError(w, api.ErrInternal, "response could not be encoded")
		return
	}
	writeBody(w, status, body)
}

// writeError writes the uniform v1 error envelope
// {"error":{"code":...,"message":...}} with the code's HTTP status.
func writeError(w http.ResponseWriter, code api.ErrorCode, msg string) {
	body, _ := encodeJSON(api.ErrorEnvelope{ // two strings: cannot fail
		Error: &api.Error{Code: code, Message: msg},
	})
	writeBody(w, api.HTTPStatus(code), body)
}

// writeOverloaded writes the shed-load response: 429 overloaded with the
// retryAfter hint in whole seconds.
func writeOverloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeError(w, api.ErrOverloaded, fmt.Sprintf("server at concurrency capacity; retry after %s", retryAfter))
}
