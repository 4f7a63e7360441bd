// Package api defines the v1 wire contract of the smart drill-down
// service: the typed request/response DTOs shared by internal/server (the
// producer) and the client SDK (the consumer), the Server-Sent-Event
// payloads of the anytime streaming endpoint, and the uniform error
// envelope with machine-readable codes.
//
// Nodes on the wire are addressed by *stable string IDs* ("n1", "n42"):
// a node keeps its ID from the moment an expansion creates it until a
// collapse or re-expansion removes it from the displayed tree, regardless
// of what happens elsewhere in the tree. IDs are the only node address:
// requests are decoded strictly, so a body carrying any other field (the
// retired positional "path" included) is a bad_request.
//
// The package deliberately depends on nothing but the standard library:
// importing it pulls in no engine code, so second-language clients can
// treat it as the contract's single source of truth alongside
// docs/openapi.yaml.
package api

// Node is the wire form of one displayed rule.
type Node struct {
	// ID is the node's stable identifier within its session ("n1" is the
	// root). IDs are never reused while a session lives; a node orphaned by
	// collapse or re-expansion resolves to not_found afterwards.
	ID string `json:"id"`
	// Rule maps instantiated column names to their values; wildcarded
	// columns are absent.
	Rule map[string]string `json:"rule"`
	// Display is the full decoded rule, one cell per column, stars as "?".
	Display []string `json:"display"`
	// Count is the displayed aggregate (Count or Sum), a sample estimate
	// when Exact is false.
	Count float64 `json:"count"`
	// Exact reports whether Count is authoritative rather than estimated.
	Exact bool `json:"exact"`
	// CI bounds the true count at 95% confidence when Count is an estimate
	// with interval support; omitted for exact counts and for estimates
	// without intervals (Sum aggregates). A present CI may genuinely be
	// [0, 0] — absence, not degeneracy, signals "no interval".
	CI       *[2]float64 `json:"ci,omitempty"`
	Weight   float64     `json:"weight"`
	Children []*Node     `json:"children,omitempty"`
}

// Tree is the wire form of a whole session: POST /v1/sessions and
// GET /v1/sessions/{id}/tree both return it.
type Tree struct {
	ID        string   `json:"id"`
	Dataset   string   `json:"dataset"`
	Columns   []string `json:"columns"`
	Aggregate string   `json:"aggregate"`
	K         int      `json:"k"`
	Root      *Node    `json:"root"`
	// Rendered is the paper-style aligned text table, for terminals.
	Rendered string `json:"rendered"`
}

// Dataset describes one registered dataset (GET /v1/datasets).
type Dataset struct {
	Name     string   `json:"name"`
	Rows     int      `json:"rows"`
	Columns  []string `json:"columns"`
	Measures []string `json:"measures,omitempty"`
}

// DatasetList is the body of GET /v1/datasets.
type DatasetList struct {
	Datasets []Dataset `json:"datasets"`
}

// CacheHealth reports one dataset's answer-cache activity: completed
// expansions currently cached, expansions served from the cache (hits)
// versus executed (misses), requests collapsed onto a concurrent
// identical execution by singleflight, and expansions precomputed by
// background warming.
type CacheHealth struct {
	Entries           int   `json:"entries"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	SingleflightWaits int64 `json:"singleflight_waits"`
	Warmed            int64 `json:"warmed"`
}

// DatasetHealth is one dataset's row count and cache activity in the
// health report.
type DatasetHealth struct {
	Name  string       `json:"name"`
	Rows  int          `json:"rows"`
	Cache *CacheHealth `json:"cache,omitempty"`
}

// Health is the body of GET /v1/health.
type Health struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Sessions int    `json:"sessions"`
	// PersistFailures counts failed session-snapshot write-throughs since
	// startup (durability degraded, availability intact); always 0 when no
	// snapshot backend is configured.
	PersistFailures uint64          `json:"persist_failures"`
	Datasets        []DatasetHealth `json:"datasets"`
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// Dataset names a registered dataset (required).
	Dataset string `json:"dataset"`
	// K is rules per expansion; 0 means the server default.
	K int `json:"k,omitempty"`
	// Weighter is "size" (default), "bits", or "size-1".
	Weighter string `json:"weighter,omitempty"`
	// SampleMemory and MinSampleSize enable dynamic sampling when both are
	// positive (Section 4 of the paper); Prefetch additionally reallocates
	// samples after each expansion.
	SampleMemory  int  `json:"sample_memory,omitempty"`
	MinSampleSize int  `json:"min_sample_size,omitempty"`
	Prefetch      bool `json:"prefetch,omitempty"`
	// SampleThreshold routes expansions by (sub)view size: views that can
	// exceed this many rows are searched on a sample (provisional,
	// confidence-bounded counts, refined to exact afterwards), smaller
	// ones exactly. 0 samples every expansion when sampling is enabled.
	SampleThreshold int `json:"sample_threshold,omitempty"`
	// DisableSampling has the server ignore the sampling fields: the session
	// is exact, as one created without them.
	DisableSampling bool `json:"disable_sampling,omitempty"`
	// Sum optimizes the named measure column instead of tuple counts.
	Sum string `json:"sum,omitempty"`
	// Seed fixes the sampling RNG for reproducible sessions.
	Seed int64 `json:"seed,omitempty"`
	// Workers overrides the server's per-expansion BRS parallelism.
	Workers int `json:"workers,omitempty"`
}

// DrillRequest is the body of POST /v1/sessions/{id}/drill and
// /collapse. The target node is addressed by its stable ID in Node; empty
// means the root. For drill, a non-empty Column requests the paper's star
// drill-down on that column; collapse ignores Column.
type DrillRequest struct {
	Node   string `json:"node,omitempty"`
	Column string `json:"column,omitempty"`
}

// SearchStats mirrors the BRS search counters of one request — clients
// can watch candidate reuse and postings-vs-scan routing per drill. The
// server copies it from the engine's counters, every one but the
// in-process CellsBooked, and a test fails when the two definitions
// drift.
//
// CandidatesPruned counts rules the search generated and then dropped by
// the a-priori bound test. Super-rules of a rule whose own bound already
// fails are never generated, and are not counted.
type SearchStats struct {
	Passes             int   `json:"passes"`
	CandidatesCounted  int   `json:"candidates_counted"`
	CandidatesPruned   int   `json:"candidates_pruned"`
	CandidatesReused   int   `json:"candidates_reused"`
	RowsScanned        int64 `json:"rows_scanned"`
	PostingsRead       int64 `json:"postings_read"`
	BitmapWordsRead    int64 `json:"bitmap_words_read"`
	IndexLevels        int   `json:"index_levels"`
	CandidateCapHit    bool  `json:"candidate_cap_hit"`
	SampledRowsScanned int64 `json:"sampled_rows_scanned"`
	// CacheHits, CacheMisses and SingleflightWaits report the dataset
	// answer cache's part in this request: a cache-hit drill shows
	// cache_hits 1 with zero passes and zero rows scanned; cache_misses
	// counts actual BRS executions; singleflight_waits marks a request
	// served by adopting a concurrent identical run.
	CacheHits         int `json:"cache_hits"`
	CacheMisses       int `json:"cache_misses"`
	SingleflightWaits int `json:"singleflight_waits"`
}

// DrillResponse returns the expanded (or collapsed) subtree plus the
// access method BRS used to obtain tuples ("direct", "Find", "Combine",
// "Create") and, for expansions, the search statistics of the BRS run.
type DrillResponse struct {
	Access string       `json:"access,omitempty"`
	Search *SearchStats `json:"search,omitempty"`
	Node   *Node        `json:"node"`
}

// RefineRequest is the body of POST /v1/sessions/{id}/refine: upgrade one
// provisional (sample-estimated) node to its exact aggregate.
type RefineRequest struct {
	Node string `json:"node,omitempty"`
}

// RefineResponse reports whether the refinement changed the node, with
// the node's current wire form either way.
type RefineResponse struct {
	Changed bool  `json:"changed"`
	Node    *Node `json:"node"`
}

// TraditionalRequest is the body of POST /v1/sessions/{id}/traditional:
// the classic OLAP drill-down listing on one column under a node
// (read-only; provided for comparison with smart drill-down).
type TraditionalRequest struct {
	Node   string `json:"node,omitempty"`
	Column string `json:"column"`
}

// TraditionalGroup is one value group of a traditional drill-down.
type TraditionalGroup struct {
	Value string  `json:"value"`
	Count float64 `json:"count"`
}

// TraditionalResponse is the body returned by /traditional.
type TraditionalResponse struct {
	Groups []TraditionalGroup `json:"groups"`
}

// DeleteResponse is the body of DELETE /v1/sessions/{id}.
type DeleteResponse struct {
	Deleted string `json:"deleted"`
}

// SSE event names emitted by GET /v1/sessions/{id}/drill/stream.
const (
	// EventRule carries a Node: one rule, pushed the moment the greedy
	// search finds it.
	EventRule = "rule"
	// EventRefine carries a Node: a provisional rule re-pushed with its
	// exact count after the search (exact true, no CI).
	EventRefine = "refine"
	// EventDone carries a DoneEvent and ends the stream.
	EventDone = "done"
)

// DoneEvent is the terminal SSE payload summarizing the stream.
type DoneEvent struct {
	// Rules is the number of rule events emitted.
	Rules int `json:"rules"`
	// Refined is the number of refine events emitted.
	Refined int `json:"refined"`
	// Access is how the search obtained tuples ("direct", "Find", …).
	Access    string `json:"access"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Error and ErrorCode are set when the search ended abnormally;
	// ErrorCode uses the same machine-readable codes as the error
	// envelope (ErrCanceled when the client went away mid-search).
	Error     string    `json:"error,omitempty"`
	ErrorCode ErrorCode `json:"error_code,omitempty"`
}
