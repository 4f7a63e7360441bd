package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"smartdrill"
	"smartdrill/api"
)

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:          "ok",
		Version:         smartdrill.Version,
		Sessions:        s.store.len(),
		PersistFailures: s.PersistFailures(),
		Datasets:        []api.DatasetHealth{},
	}
	for _, name := range s.datasetNames() {
		d, _ := s.dataset(name)
		dh := api.DatasetHealth{Name: name, Rows: d.table.NumRows()}
		if d.svc != nil {
			c := d.svc.Counters()
			dh.Cache = &api.CacheHealth{
				Entries:           c.Entries,
				Hits:              c.Hits,
				Misses:            c.Misses,
				SingleflightWaits: c.SingleflightWaits,
				Warmed:            c.Warmed,
			}
		}
		h.Datasets = append(h.Datasets, dh)
	}
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out := api.DatasetList{Datasets: []api.Dataset{}}
	for _, name := range s.datasetNames() {
		d, _ := s.dataset(name)
		out.Datasets = append(out.Datasets, api.Dataset{
			Name:     name,
			Rows:     d.table.NumRows(),
			Columns:  d.table.ColumnNames(),
			Measures: d.measures,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Dataset == "" {
		writeError(w, api.ErrBadRequest, "dataset is required")
		return
	}
	d, ok := s.dataset(req.Dataset)
	if !ok {
		writeError(w, api.ErrNotFound, fmt.Sprintf("unknown dataset %q", req.Dataset))
		return
	}
	eng, err := s.buildEngine(d, req)
	if err != nil {
		code := api.ErrBadRequest
		if errors.Is(err, errKTooLarge) {
			code = api.ErrBudget
		}
		writeError(w, code, err.Error())
		return
	}
	sess := s.newSession(newSessionID(), req.Dataset, time.Now().UTC(), req, eng, false)
	s.putSession(sess)
	// A new session is ahead of disk, so this first visit also saves it.
	var tree *api.Tree
	sess.do(r.Context(), func(e *smartdrill.Engine) { tree = encodeTree(sess, e) })
	s.writeJSON(w, http.StatusCreated, tree)
}

// errKTooLarge classifies the oversized-k rejection so the handler can
// report it under the budget error code.
var errKTooLarge = errors.New("k too large")

// buildEngine translates a create request into an Engine on the dataset.
func (s *Server) buildEngine(d dataset, req api.CreateSessionRequest) (*smartdrill.Engine, error) {
	k := req.K
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if k > 100 {
		return nil, fmt.Errorf("%w: %d (max 100)", errKTooLarge, k)
	}
	weighter, err := smartdrill.WeighterByName(d.table, req.Weighter)
	if err != nil {
		return nil, err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	opts := []smartdrill.Option{
		smartdrill.WithK(k),
		smartdrill.WithWeighter(weighter),
		smartdrill.WithWorkers(workers),
	}
	if d.svc != nil {
		// Every session on a dataset shares its search service, so repeated
		// identical expansions — across sessions, or re-drills within one —
		// are answered from the dataset's cache and concurrent identical
		// searches collapse onto one execution.
		opts = append(opts, smartdrill.WithSearchService(d.svc))
	}
	// disable_sampling asks for the session the sampling fields would give
	// without them: exact, with no sample handler and so no prefetch.
	if req.SampleMemory > 0 && req.MinSampleSize > 0 && !req.DisableSampling {
		opts = append(opts, smartdrill.WithSampling(req.SampleMemory, req.MinSampleSize))
		if req.Prefetch {
			opts = append(opts, smartdrill.WithPrefetch())
		}
		if req.SampleThreshold > 0 {
			opts = append(opts, smartdrill.WithSampleThreshold(req.SampleThreshold))
		}
	}
	if req.Sum != "" {
		o, err := smartdrill.WithSum(d.table, req.Sum)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o)
	}
	if req.Seed != 0 {
		opts = append(opts, smartdrill.WithSeed(req.Seed))
	}
	return smartdrill.New(d.table, opts...)
}

// lookupSession resolves the {id} path segment. A store miss is a cache
// miss, not an error, when a backend is configured: the session may have
// been evicted to disk or belong to a previous process incarnation, so the
// backend is consulted (rehydration) before writing the 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.get(id)
	if !ok {
		sess, ok = s.rehydrate(id)
	}
	if !ok {
		writeError(w, api.ErrNotFound, fmt.Sprintf("unknown session %q (expired, evicted, or never created)", id))
		return nil, false
	}
	return sess, true
}

// sessionRequest resolves the {id} session, then decodes the body into a T.
// False means it wrote the error: not_found, or bad_request.
func sessionRequest[T any](s *Server, w http.ResponseWriter, r *http.Request) (*session, T, bool) {
	var req T
	sess, ok := s.lookupSession(w, r)
	ok = ok && decodeBody(w, r, &req)
	return sess, req, ok
}

// Every session handler has the same shape: decode, one visit through the
// session's door that computes the whole outcome (an error or an encoded
// response), then write. Nothing is written from inside the door — the SSE
// stream's rule events, which must go out as they are found, excepted — so
// a slow client reading the response never holds up the session, and every
// response follows the visit's write-through.

// visitNode runs fn inside sess's door, for request r, on the node nodeID
// addresses — a stable ID, empty meaning the root — and reports whether fn
// succeeded. If not, it writes the error once out of the door: fn's, or
// not_found for an unknown (or no-longer-displayed) ID, bad_rule for a
// malformed one.
func visitNode(w http.ResponseWriter, r *http.Request, sess *session, nodeID string, fn func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error) bool {
	var fail *api.Error
	sess.do(r.Context(), func(e *smartdrill.Engine) {
		n := e.Root()
		if nodeID != "" {
			var err error
			if n, err = e.NodeByID(nodeID); err != nil {
				fail = &api.Error{Code: api.ErrBadRule, Message: err.Error()}
				if errors.Is(err, smartdrill.ErrUnknownNode) {
					fail.Code = api.ErrNotFound
				}
				return
			}
		}
		fail = fn(e, n)
	})
	if fail != nil {
		writeError(w, fail.Code, fail.Message)
	}
	return fail == nil
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var tree *api.Tree
	sess.do(r.Context(), func(e *smartdrill.Engine) { tree = encodeTree(sess, e) })
	s.writeJSON(w, http.StatusOK, tree)
}

func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	sess, req, ok := sessionRequest[api.DrillRequest](s, w, r)
	if !ok {
		return
	}
	var (
		resp        api.DrillResponse
		provisional []*smartdrill.Node
	)
	// The request context rides into the BRS search, so a client that
	// abandons the request stops the search at the next pass boundary.
	if !visitNode(w, r, sess, req.Node, func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error {
		var err error
		if req.Column != "" {
			err = e.DrillDownStarCtx(r.Context(), n, req.Column)
		} else {
			err = e.DrillDownCtx(r.Context(), n)
		}
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return &api.Error{Code: api.ErrCanceled, Message: "request canceled during search: " + err.Error()}
		case err != nil:
			return &api.Error{Code: api.ErrBadRule, Message: err.Error()}
		}
		resp = api.DrillResponse{
			Access: e.LastAccessMethod(),
			Search: encodeStats(e.LastSearchStats()),
			Node:   encodeNode(e, n),
		}
		// Under degraded admission pressure the refinement is skipped, not
		// queued: provisional estimates are the graceful-degradation answer,
		// and the refiner's extra counting passes are exactly the load the
		// ladder is trying to shed. The nodes stay provisional and refine on
		// demand (or on a later non-degraded drill).
		if s.cfg.BackgroundRefine && !smartdrill.IsDegraded(r.Context()) {
			provisional = e.ProvisionalNodesIn(n)
		}
		return nil
	}) {
		return
	}
	if len(provisional) > 0 {
		// Respond with the provisional estimates immediately; exact counts
		// arrive in the background and show up on the next /tree fetch.
		s.refineInBackground(sess, provisional)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCollapse(w http.ResponseWriter, r *http.Request) {
	sess, req, ok := sessionRequest[api.DrillRequest](s, w, r)
	if !ok {
		return
	}
	var resp api.DrillResponse
	if !visitNode(w, r, sess, req.Node, func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error {
		e.Collapse(n)
		resp = api.DrillResponse{Node: encodeNode(e, n)}
		return nil
	}) {
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleRefine upgrades one provisional (sample-estimated) node to its
// exact aggregate with one accounted pass — the on-demand form of the
// provisional→exact lifecycle the SSE stream and the background refiner
// drive automatically.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	sess, req, ok := sessionRequest[api.RefineRequest](s, w, r)
	if !ok {
		return
	}
	var resp api.RefineResponse
	if !visitNode(w, r, sess, req.Node, func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error {
		changed := e.RefineNode(n)
		resp = api.RefineResponse{Changed: changed, Node: encodeNode(e, n)}
		return nil
	}) {
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleTraditional serves the classic OLAP drill-down listing on one
// column under a node — read-only, for comparison with smart drill-down
// (Figure 4 of the paper).
func (s *Server) handleTraditional(w http.ResponseWriter, r *http.Request) {
	sess, req, ok := sessionRequest[api.TraditionalRequest](s, w, r)
	if !ok {
		return
	}
	if req.Column == "" {
		writeError(w, api.ErrBadRequest, "column is required")
		return
	}
	var groups []smartdrill.TraditionalGroup
	if !visitNode(w, r, sess, req.Node, func(e *smartdrill.Engine, n *smartdrill.Node) *api.Error {
		var err error
		if groups, err = e.TraditionalDrillDown(n, req.Column); err != nil {
			return &api.Error{Code: api.ErrBadRule, Message: err.Error()}
		}
		return nil
	}) {
		return
	}
	resp := api.TraditionalResponse{Groups: []api.TraditionalGroup{}}
	for _, g := range groups {
		resp.Groups = append(resp.Groups, api.TraditionalGroup{Value: g.Value, Count: g.Count})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Delete is delete everywhere: a session evicted to disk (absent from
	// the store) must still be deletable, and a deleted session must not
	// resurrect through rehydration. Success if either layer had it.
	sess := s.store.remove(id)
	if sess != nil {
		// Tombstone before the snapshot goes: a request or refiner still
		// holding sess would otherwise write the file back afterwards.
		sess.tombstone()
	}
	onDisk := false
	if s.backend != nil && validSnapshotID(id) {
		switch err := s.backend.Delete(id); {
		case err == nil:
			onDisk = true
		case !errors.Is(err, ErrNoSnapshot):
			s.cfg.Logger.Printf("session %s: deleting snapshot failed: %v", id, err)
		}
	}
	if sess == nil && !onDisk {
		writeError(w, api.ErrNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, api.DeleteResponse{Deleted: id})
}

// maxBodyBytes caps a request body. The largest legitimate v1 request is a
// create with a handful of short fields; 1 MiB is orders of magnitude of
// headroom and still bounds what one request can make the decoder buffer.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body of at most maxBodyBytes into v,
// rejecting unknown fields so client typos surface as 400s instead of
// silently-default behavior; false means it wrote that 400. An empty body
// decodes as the zero request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, api.ErrBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}
