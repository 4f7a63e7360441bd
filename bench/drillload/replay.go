package main

import (
	"bytes"
	"context"
	"time"

	"smartdrill/api"
	"smartdrill/internal/brs"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/search"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// opRecord is one operation as the script issued it: enough to write its
// script line, and — in a traced run — to replay it on the twin.
type opRecord struct {
	ID       int
	Class    opClass
	Kind     string // create, drill, stream, tree, collapse, traditional, delete
	Sess     int
	Node     string            // wire id of the addressed node
	Rule     map[string]string // its rule: the twin addresses nodes by rule
	Column   string
	MaxRules int
	Create   *api.CreateSessionRequest
}

// replayer re-executes a traced run's operations on twin sessions built
// with the server's own recipe (server.buildEngine), timing every call it
// makes into a layer, and files each timing as a shadow span under the
// operation's server span. Layers the engine does not expose are measured
// by calling them directly with the inputs the engine passed: the view the
// rule resolves to, the estimated mw, the BRS options.
type replayer struct {
	h     *harness
	tr    *tracer
	t     *table.Table
	svc   *search.Service // the dataset's shared service, as the server keeps one
	twins map[int]*twinSession
}

// twinSession is one replayed session. shadow is a second sample handler
// with the same seed, fed the same requests, so it hands out the very
// views the session's own (unreachable) handler does.
type twinSession struct {
	s      *drill.Session
	w      weight.Weighter
	seed   int64
	shadow *sampling.Handler
}

func newReplayer(h *harness) *replayer {
	cacheOff := false
	for _, f := range h.w.flags {
		cacheOff = cacheOff || f == "-cache-off"
	}
	return &replayer{h: h, tr: h.tr, t: h.ds.table, twins: map[int]*twinSession{},
		svc: search.NewService(search.Config{Disabled: cacheOff})}
}

// cursor lays shadow spans end to end inside their parent. A twin timing
// is a second execution of the same work, so it can come out longer than
// the observed span it belongs under; spans are then fitted — cut, or for
// siblings scaled in proportion — so that children never extend past their
// parent and self times stay a partition of the client span. The unfitted
// timing is kept on the span (twin_ns) and summarised per class as
// twin_over_observed.
type cursor struct {
	tr     *tracer
	op     int
	parent int
	at     int64 // where the next span starts
	end    int64 // where the parent ends
}

// piece is one timed call waiting to be placed.
type piece struct {
	layer, name string
	d           time.Duration
}

// put places one shadow span at the cursor and returns a cursor for its
// own children.
func (c *cursor) put(layer, name string, d time.Duration) *cursor {
	return c.fit(piece{layer, name, d})[0]
}

// fit places sibling spans end to end, scaled down together if they would
// not fit in what is left of the parent.
func (c *cursor) fit(ps ...piece) []*cursor {
	var sum int64
	for _, p := range ps {
		sum += int64(p.d)
	}
	scale := 1.0
	if room := c.end - c.at; sum > room && sum > 0 {
		scale = float64(max(room, 0)) / float64(sum)
	}
	inner := make([]*cursor, len(ps))
	for i, p := range ps {
		fitted := int64(float64(p.d) * scale)
		id := c.tr.add(span{Op: c.op, Parent: c.parent, Layer: p.layer, Name: p.name,
			Start: c.at, End: c.at + fitted, Shadow: true, Twin: int64(p.d)})
		inner[i] = &cursor{tr: c.tr, op: c.op, parent: id, at: c.at, end: c.at + fitted}
		c.at += fitted
	}
	return inner
}

// group opens a span that extends over whatever is placed through the
// returned cursor; done closes it there.
func (c *cursor) group(layer, name string) (inner *cursor, done func()) {
	id := c.tr.add(span{Op: c.op, Parent: c.parent, Layer: layer, Name: name, Start: c.at, End: c.at, Shadow: true})
	inner = &cursor{tr: c.tr, op: c.op, parent: id, at: c.at, end: c.end}
	return inner, func() {
		c.tr.mu.Lock()
		sp := &c.tr.spans[id-1]
		sp.End = inner.at
		for _, k := range c.tr.spans[id:] {
			if k.Parent == id {
				sp.Twin += k.Twin
			}
		}
		c.tr.mu.Unlock()
		c.at = inner.at
	}
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// run links the observed spans (server under client, backend under server)
// and replays every operation.
func (r *replayer) run() {
	tr := r.tr
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.Layer {
		case "server":
			s.Parent = tr.client[s.Op]
		case "backend":
			s.Parent = tr.server[s.Op]
		}
	}
	// Shadow spans share their server span with the backend calls observed
	// inside it; the room they are fitted into is what those leave.
	observed := map[int]int64{}
	for _, s := range tr.spans {
		if s.Layer == "backend" && s.Parent != 0 {
			if p := tr.spans[s.Parent-1]; s.Start >= p.Start && s.End <= p.End {
				observed[s.Parent] += s.dur()
			}
		}
	}
	for _, op := range r.h.ops {
		sid, ok := tr.server[op.ID]
		if !ok {
			continue // the request never reached the handler
		}
		srv := tr.spans[sid-1]
		r.replay(op, &cursor{tr: tr, op: op.ID, parent: sid, at: srv.Start, end: srv.End - observed[sid]})
	}
}

// find resolves the node an operation addressed, by its rule.
func (r *replayer) find(tw *twinSession, pattern map[string]string) *drill.Node {
	want, err := r.t.EncodeRule(pattern)
	if err != nil {
		return nil
	}
	var walk func(n *drill.Node) *drill.Node
	walk = func(n *drill.Node) *drill.Node {
		if n.Rule.Equal(want) {
			return n
		}
		for _, c := range n.Children {
			if f := walk(c); f != nil {
				return f
			}
		}
		return nil
	}
	return walk(tw.s.Root())
}

func (r *replayer) replay(op opRecord, c *cursor) {
	if op.Kind == "create" {
		r.create(op, c)
		return
	}
	tw := r.twins[op.Sess]
	if tw == nil {
		return
	}
	var n *drill.Node
	if op.Rule != nil {
		if n = r.find(tw, op.Rule); n == nil {
			return
		}
	}
	mutated := true
	switch op.Kind {
	case "drill":
		r.drill(tw, n, op, c)
	case "stream":
		r.stream(tw, n, op, c)
	case "collapse":
		c.put("drill", "collapse", timed(func() { tw.s.Collapse(n) }))
	case "tree":
		mutated = false
		c.put("drill", "render", timed(func() { tw.s.Render() }))
	case "traditional":
		mutated = false
		if col, err := r.t.ColumnIndex(op.Column); err == nil {
			c.put("drill", "traditional", timed(func() { tw.s.Traditional(n, col) })) //nolint:errcheck // timing only; the served answer was verified
		}
	case "delete":
		mutated = false
		delete(r.twins, op.Sess)
	}
	if mutated && r.h.w.durable {
		r.save(tw, c)
	}
}

// save times the tree serialisation a durable server does before it hands
// the bytes to the backend.
func (r *replayer) save(tw *twinSession, c *cursor) {
	var buf bytes.Buffer
	c.put("drill", "save", timed(func() { tw.s.Save(&buf) })) //nolint:errcheck // a bytes.Buffer cannot fail
}

func (r *replayer) create(op opRecord, c *cursor) {
	req := *op.Create
	w := weight.Weighter(weight.NewSize(r.t.NumCols()))
	cfg := drill.Config{K: suiteK, Weighter: w, Search: r.svc, Seed: req.Seed}
	if req.SampleMemory > 0 && req.MinSampleSize > 0 {
		cfg.SampleMemory, cfg.MinSampleSize, cfg.SampleThreshold = req.SampleMemory, req.MinSampleSize, req.SampleThreshold
	}
	tw := &twinSession{w: w, seed: max(req.Seed, 1)}
	var err error
	c.put("drill", "new_session", timed(func() { tw.s, err = drill.NewSession(r.t, cfg) }))
	if err != nil {
		return
	}
	if tw.s.Handler() != nil {
		tw.shadow, _ = sampling.NewHandler(storage.NewStore(r.t), req.SampleMemory, req.MinSampleSize, sampling.NewTestRNG(tw.seed))
	}
	r.twins[op.Sess] = tw
	if r.h.w.durable {
		r.save(tw, c)
	}
}

// resolve obtains the view a search of rl runs on, directly from the layer
// that serves it, and returns that call as a piece to place: the sample
// handler for sampled expansions, the inverted index otherwise (nothing to
// time for the trivial rule, whose view is the table).
func (r *replayer) resolve(tw *twinSession, rl rule.Rule, sampled bool) (*table.View, float64, []piece) {
	if sampled && tw.shadow != nil {
		var v *sampling.View
		var err error
		d := timed(func() { v, err = tw.shadow.GetSample(rl) })
		if err != nil {
			return nil, 0, nil
		}
		return v.Tab, v.Scale, []piece{{"sampling", "get_sample:" + v.Method.String(), d}}
	}
	if rl.IsTrivial() {
		return r.t.All(), 1, nil
	}
	var rows []int
	d := timed(func() { rows, _ = r.t.Index().Lookup(rl) })
	return r.t.ViewOf(rows), 1, []piece{{"table", "lookup", d}}
}

func isSampled(method string) bool {
	return method == sampling.Find.String() || method == sampling.Combine.String() || method == sampling.Create.String()
}

func (r *replayer) drill(tw *twinSession, n *drill.Node, op opRecord, c *cursor) {
	w := tw.w
	var err error
	var d time.Duration
	if op.Column != "" {
		col, cerr := r.t.ColumnIndex(op.Column)
		if cerr != nil {
			return
		}
		w = weight.StarConstraint{Inner: tw.w, Column: col}
		d = timed(func() { err = tw.s.ExpandStar(n, col) })
	} else {
		d = timed(func() { err = tw.s.Expand(n) })
	}
	if err != nil {
		return
	}
	inner := c.put("drill", "expand", d)
	if tw.s.LastStats.CacheHits > 0 || tw.s.LastStats.SingleflightWaits > 0 {
		// A hit: the search layer's whole part is the lookup and the
		// clone, timed on the same service with the same key.
		req := search.Request{Kind: search.KindBatch, Rule: n.Rule, K: suiteK, Weighter: w, Agg: tw.s.Agg(), Seed: tw.seed, Store: tw.s.Store()}
		inner.put("search", "run:hit", timed(func() { r.svc.Run(context.Background(), req) })) //nolint:errcheck // a cached key cannot fail
		return
	}
	// An executed search. The search layer's own work on a miss — one map
	// insert and a clone of at most k rules — is below timer resolution
	// next to the search it wraps; the span is the sum of its children.
	view, scale, ps := r.resolve(tw, n.Rule, isSampled(tw.s.LastMethod))
	if view == nil {
		return
	}
	var mw float64
	ps = append(ps, piece{"brs", "mw_probe", timed(func() { mw = drill.EstimateMaxWeight(view, w, suiteK, tw.seed) })})
	ps = append(ps, piece{"brs", "run", timed(func() {
		brs.Run(view, w, brs.Options{K: suiteK, MaxWeight: mw, Base: n.Rule, BaseCovered: true, SampleScale: scale}) //nolint:errcheck // timing only
	})})
	kids, done := inner.group("search", "run:miss")
	kids.fit(ps...)
	done()
}

func (r *replayer) stream(tw *twinSession, n *drill.Node, op opRecord, c *cursor) {
	var err error
	d := timed(func() {
		err = tw.s.ExpandStreamCtx(context.Background(), n, op.MaxRules, 5*time.Second, nil)
	})
	if err != nil {
		return
	}
	inner := c.put("drill", "expand_stream", d)
	view, scale, ps := r.resolve(tw, n.Rule, isSampled(tw.s.LastMethod))
	if view == nil {
		return
	}
	var mw float64
	ps = append(ps, piece{"brs", "mw_probe", timed(func() { mw = drill.EstimateMaxWeight(view, tw.w, op.MaxRules, tw.seed) })})
	ps = append(ps, piece{"brs", "run_incremental", timed(func() {
		brs.RunIncremental(view, tw.w, brs.Options{MaxWeight: mw, Base: n.Rule, BaseCovered: true, MinGainRatio: 0.01, SampleScale: scale}, //nolint:errcheck // timing only
			op.MaxRules, time.Now().Add(5*time.Second), func(brs.Result) bool { return true })
	})})
	kids, done := inner.group("search", "run:stream")
	kids.fit(ps...)
	done()
	// The handler then re-counts every provisional rule it streamed.
	for _, child := range append([]*drill.Node{}, n.Children...) {
		if !child.Exact {
			c.put("drill", "refine", timed(func() { tw.s.RefineNode(child) }))
		}
	}
}
