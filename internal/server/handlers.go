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
	writeJSON(w, http.StatusOK, h)
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
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, api.ErrBadRequest, err.Error())
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
	sess := &session{
		id:      newSessionID(),
		dataset: req.Dataset,
		created: time.Now().UTC(),
		req:     req,
		eng:     eng,
	}
	s.putSession(sess)
	s.persistSession(sess)
	sess.mu.Lock()
	tree := encodeTree(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, tree)
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
	if req.SampleMemory > 0 && req.MinSampleSize > 0 {
		opts = append(opts, smartdrill.WithSampling(req.SampleMemory, req.MinSampleSize))
		if req.Prefetch {
			opts = append(opts, smartdrill.WithPrefetch())
		}
		if req.SampleThreshold > 0 {
			opts = append(opts, smartdrill.WithSampleThreshold(req.SampleThreshold))
		}
	}
	if req.DisableSampling {
		opts = append(opts, smartdrill.WithSamplingDisabled())
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

// resolveNode resolves a node reference — a stable ID, empty meaning the
// root. The caller must hold the session's lock. On failure it writes the
// error response and returns false: an unknown (or no-longer-displayed) ID
// is not_found, a malformed ID is bad_rule.
//
//sdlint:holds mu — every handler resolves nodes inside its session critical section
func resolveNode(w http.ResponseWriter, sess *session, nodeID string) (*smartdrill.Node, bool) {
	if nodeID == "" {
		return sess.eng.Root(), true
	}
	n, err := sess.eng.NodeByID(nodeID)
	if err != nil {
		code := api.ErrBadRule
		if errors.Is(err, smartdrill.ErrUnknownNode) {
			code = api.ErrNotFound
		}
		writeError(w, code, err.Error())
		return nil, false
	}
	return n, true
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	tree := encodeTree(sess)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, tree)
}

func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req api.DrillRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, api.ErrBadRequest, err.Error())
		return
	}
	// Encode under the session lock, write after releasing it: a slow
	// client reading the response must not hold up the session. The
	// request context rides into the BRS search, so a client that
	// abandons the request stops the search at the next pass boundary.
	sess.mu.Lock()
	n, ok := resolveNode(w, sess, req.Node)
	if !ok {
		sess.mu.Unlock()
		return
	}
	var err error
	if req.Column != "" {
		err = sess.eng.DrillDownStarCtx(r.Context(), n, req.Column)
	} else {
		err = sess.eng.DrillDownCtx(r.Context(), n)
	}
	if err != nil {
		sess.mu.Unlock()
		// A failed re-drill has already collapsed the node it replaces.
		s.persistSession(sess)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, api.ErrCanceled, "request canceled during search: "+err.Error())
			return
		}
		writeError(w, api.ErrBadRule, err.Error())
		return
	}
	stats := sess.eng.LastSearchStats()
	resp := api.DrillResponse{
		Access: sess.eng.LastAccessMethod(),
		Search: encodeStats(stats),
		Node:   encodeNode(sess.eng, n),
	}
	var provisional []*smartdrill.Node
	// Under degraded admission pressure the refinement is skipped, not
	// queued: provisional estimates are the graceful-degradation answer,
	// and the refiner's extra counting passes are exactly the load the
	// ladder is trying to shed. The nodes stay provisional and refine on
	// demand (or on a later non-degraded drill).
	if s.cfg.BackgroundRefine && !smartdrill.IsDegraded(r.Context()) {
		provisional = sess.eng.ProvisionalNodesIn(n)
	}
	sess.mu.Unlock()
	s.persistSession(sess)
	if len(provisional) > 0 {
		// Respond with the provisional estimates immediately; exact counts
		// arrive in the background and show up on the next /tree fetch.
		s.refiners.Add(1)
		go s.refineNodes(sess, provisional)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCollapse(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req api.DrillRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, api.ErrBadRequest, err.Error())
		return
	}
	sess.mu.Lock()
	n, ok := resolveNode(w, sess, req.Node)
	if !ok {
		sess.mu.Unlock()
		return
	}
	sess.eng.Collapse(n)
	resp := api.DrillResponse{Node: encodeNode(sess.eng, n)}
	sess.mu.Unlock()
	s.persistSession(sess)
	writeJSON(w, http.StatusOK, resp)
}

// handleRefine upgrades one provisional (sample-estimated) node to its
// exact aggregate with one accounted pass — the on-demand form of the
// provisional→exact lifecycle the SSE stream and the background refiner
// drive automatically.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req api.RefineRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, api.ErrBadRequest, err.Error())
		return
	}
	sess.mu.Lock()
	n, ok := resolveNode(w, sess, req.Node)
	if !ok {
		sess.mu.Unlock()
		return
	}
	changed := sess.eng.RefineNode(n)
	resp := api.RefineResponse{Changed: changed, Node: encodeNode(sess.eng, n)}
	sess.mu.Unlock()
	if changed {
		s.persistSession(sess)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraditional serves the classic OLAP drill-down listing on one
// column under a node — read-only, for comparison with smart drill-down
// (Figure 4 of the paper).
func (s *Server) handleTraditional(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req api.TraditionalRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, api.ErrBadRequest, err.Error())
		return
	}
	if req.Column == "" {
		writeError(w, api.ErrBadRequest, "column is required")
		return
	}
	sess.mu.Lock()
	n, ok := resolveNode(w, sess, req.Node)
	if !ok {
		sess.mu.Unlock()
		return
	}
	groups, err := sess.eng.TraditionalDrillDown(n, req.Column)
	sess.mu.Unlock()
	if err != nil {
		writeError(w, api.ErrBadRule, err.Error())
		return
	}
	resp := api.TraditionalResponse{Groups: []api.TraditionalGroup{}}
	for _, g := range groups {
		resp.Groups = append(resp.Groups, api.TraditionalGroup{Value: g.Value, Count: g.Count})
	}
	writeJSON(w, http.StatusOK, resp)
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
		// Taking persistMu waits out a write already in flight.
		sess.persistMu.Lock()
		sess.deleted = true
		sess.persistMu.Unlock()
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
	writeJSON(w, http.StatusOK, api.DeleteResponse{Deleted: id})
}

// decodeBody parses a JSON request body into v, rejecting unknown fields so
// client typos surface as 400s instead of silently-default behavior. An
// empty body decodes as the zero request.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}
