package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartdrill/internal/server"
)

// A traced run hosts the server's handler in this process behind a real
// loopback listener and records a span at every layer boundary that can be
// reached from outside the packages:
//
//	client    around each SDK call (harness.file)
//	server    around Handler().ServeHTTP, matched to its client span by the
//	          X-Op-Id request header the harness sets
//	backend   around each SessionBackend call, through a wrapper passed as
//	          Config.Backend — so client → server → backend nest for the
//	          *same* request
//
// Below the server boundary nothing can be wrapped without editing the
// packages, so each operation is replayed afterwards on a twin engine with
// the same inputs (replay.go) and the twin's timings are recorded as
// shadow spans under the same operation id. Spans stay in memory and are
// written to bench/out/trace-<workload>.json when the run ends.
// End-to-end metrics never come from here.

const opIDHeader = "X-Op-Id"

// span is one timed interval. Spans of one operation share Op; Parent is
// the span that caused this one (0 for the client span).
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	// Shadow marks a span measured on the twin and laid inside its parent,
	// rather than observed on the request itself; Twin is then the twin's
	// own timing, before the span was fitted into its parent.
	Shadow bool  `json:"shadow,omitempty"`
	Twin   int64 `json:"twin_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0 time.Time
	// op is the operation in flight. The client is closed-loop, so there
	// is at most one; spans recorded with no header to read (backend calls)
	// are filed under it.
	op atomic.Int64

	mu     sync.Mutex
	spans  []span
	client map[int]int // op → its client span
	server map[int]int // op → its server span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), client: map[int]int{}, server: map[int]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add files a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	switch s.Layer {
	case "client":
		t.client[s.Op] = s.ID
	case "server":
		t.server[s.Op] = s.ID
	}
	return s.ID
}

// opIDTransport stamps every outgoing request with the operation in flight.
type opIDTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (o opIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(opIDHeader, strconv.FormatInt(o.tr.op.Load(), 10))
	return o.base.RoundTrip(r)
}

// middleware records one server span per request.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(opIDHeader))
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{Op: op, Layer: "server", Name: r.Method + " " + r.Pattern, Start: start, End: t.now()})
	})
}

// spanBackend records one backend span per SessionBackend call.
type spanBackend struct {
	server.SessionBackend
	tr *tracer
}

func (b spanBackend) record(name string, start int64) {
	b.tr.add(span{Op: int(b.tr.op.Load()), Layer: "backend", Name: name, Start: start, End: b.tr.now()})
}

func (b spanBackend) Save(id string, data []byte) error {
	defer b.record("save", b.tr.now())
	return b.SessionBackend.Save(id, data)
}

func (b spanBackend) Load(id string) ([]byte, error) {
	defer b.record("load", b.tr.now())
	return b.SessionBackend.Load(id)
}

func (b spanBackend) Delete(id string) error {
	defer b.record("delete", b.tr.now())
	return b.SessionBackend.Delete(id)
}

func (b spanBackend) List() ([]string, error) {
	defer b.record("list", b.tr.now())
	return b.SessionBackend.List()
}

// inproc is a server hosted in this process: the same server.Server
// cmd/smartdrilld builds, configured from the workload's flags, behind an
// httptest listener on loopback.
type inproc struct {
	srv  *server.Server
	ts   *httptest.Server
	logf *os.File
}

func (p *inproc) url() string { return p.ts.URL }
func (p *inproc) pid() int    { return os.Getpid() }

// exited never fires: an in-process server cannot die alone.
func (p *inproc) exited() <-chan struct{} { return nil }

// kill drops the server the way a SIGKILL would as far as its state goes:
// connections are cut and nothing is flushed beyond what write-through
// already put on disk. Background goroutines are then drained so the next
// incarnation starts alone.
func (p *inproc) kill() {
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.srv.WaitRefiners()
	p.srv.WaitWarmers()
	p.logf.Close()
}

// startInproc mirrors cmd/smartdrilld's main for the flags the workloads
// use: -cache-off, -warm-children (default 2), -snapshot-dir, and
// background refinement on.
func startInproc(h *harness) (*inproc, error) {
	logf, err := os.OpenFile(h.logs, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		WarmChildren:     2,
		BackgroundRefine: true,
		Logger:           log.New(logf, "smartdrilld ", log.LstdFlags|log.Lmicroseconds),
	}
	for i, f := range h.w.flags {
		switch f {
		case "-cache-off":
			cfg.CacheOff = true
		case "-warm-children":
			if cfg.WarmChildren, err = strconv.Atoi(h.w.flags[i+1]); err != nil {
				return nil, err
			}
		}
	}
	if h.w.durable {
		dir, err := server.NewDirBackend(h.snap)
		if err != nil {
			return nil, err
		}
		cfg.Backend = dir
		if h.tr != nil {
			cfg.Backend = spanBackend{SessionBackend: dir, tr: h.tr}
		}
	}
	srv := server.New(cfg)
	srv.RegisterDataset(datasetName, h.ds.table)
	if cfg.Backend != nil {
		if _, err := srv.RecoverSessions(); err != nil {
			return nil, err
		}
	}
	handler := srv.Handler()
	if h.tr != nil {
		handler = h.tr.middleware(handler)
	}
	return &inproc{srv: srv, ts: httptest.NewServer(handler), logf: logf}, nil
}

// layerRow is one line of the per-layer table: what one layer cost, itself,
// per operation of one class.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"` // mean self time per operation
	Share  float64 `json:"share"`   // of the mean client span
}

// classTable is the per-layer breakdown of one operation class.
type classTable struct {
	Class    string     `json:"class"`
	Ops      int        `json:"ops"`
	ClientUS float64    `json:"client_us"` // mean client span
	Layers   []layerRow `json:"layers"`
	// Covered is the sum of the layers' self times as a share of the
	// client span: 1 when every span nests, less when a backend call was
	// left out for lying outside its request.
	Covered float64 `json:"covered"`
	// TwinOverObserved is how well the replay reproduces the request below
	// the server boundary: the twin's timings of what the handler called,
	// over the handler's observed time less its backend calls. Near 1 the
	// shadow attribution can be read as the request's own; the excess over
	// 1 was fitted away, the shortfall is left with the server layer.
	TwinOverObserved float64 `json:"twin_over_observed,omitempty"`
}

// layerTables computes, per operation class, each layer's mean self time:
// a span's duration minus the part its child spans cover. A child that
// does not lie inside its parent (a snapshot written by the background
// refiner after the response went out) is not subtracted from it.
func layerTables(spans []span, classOf map[int]opClass) []classTable {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type acc struct {
		ops            int
		client         int64
		self           map[string]int64
		twin, observed int64
	}
	byClass := map[opClass]*acc{}
	var walk func(a *acc, s span)
	walk = func(a *acc, s span) {
		self := s.dur()
		if s.Layer == "server" {
			a.observed += s.dur()
		}
		for _, c := range children[s.ID] {
			if !c.Shadow && (c.Start < s.Start || c.End > s.End) {
				continue
			}
			if s.Layer == "server" {
				if c.Shadow {
					a.twin += c.Twin
				} else {
					a.observed -= c.dur()
				}
			}
			self -= c.dur()
			walk(a, c)
		}
		if self > 0 {
			a.self[s.Layer] += self
		}
	}
	for _, s := range spans {
		if s.Layer != "client" {
			continue
		}
		class := classOf[s.Op]
		a := byClass[class]
		if a == nil {
			a = &acc{self: map[string]int64{}}
			byClass[class] = a
		}
		a.ops++
		a.client += s.dur()
		walk(a, s)
	}
	var out []classTable
	for class, a := range byClass {
		t := classTable{Class: string(class), Ops: a.ops, ClientUS: float64(a.client) / float64(a.ops) / 1e3}
		var sum int64
		for layer, self := range a.self {
			sum += self
			t.Layers = append(t.Layers, layerRow{Layer: layer,
				SelfUS: float64(self) / float64(a.ops) / 1e3, Share: float64(self) / float64(a.client)})
		}
		sort.Slice(t.Layers, func(i, j int) bool { return t.Layers[i].SelfUS > t.Layers[j].SelfUS })
		t.Covered = float64(sum) / float64(a.client)
		if a.twin > 0 && a.observed > 0 {
			t.TwinOverObserved = float64(a.twin) / float64(a.observed)
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

func printLayerTables(w io.Writer, tables []classTable) {
	for _, t := range tables {
		fmt.Fprintf(w, "   layers %-12s n=%-5d client %.1fus covered %.0f%% twin/observed %.2f:", t.Class, t.Ops, t.ClientUS, 100*t.Covered, t.TwinOverObserved)
		for _, l := range t.Layers {
			fmt.Fprintf(w, "  %s %.1fus (%.0f%%)", l.Layer, l.SelfUS, 100*l.Share)
		}
		fmt.Fprintln(w)
	}
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Tables   []classTable `json:"per_layer"`
	Spans    []span       `json:"spans"`
}

// runTraced is drillload -trace 1: the per-layer suite, then for each
// workload the script at reduced counts against an in-process server, once
// untraced and once traced (their difference is the tracing overhead), and
// the twin replay. The end-to-end readings of a traced invocation still
// come from a real smartdrilld: gated holds one ordinary gated result per
// workload, whose readings are reported under client.*.
func runTraced(ctx context.Context, cfg *config, ws []*workload, gated []*result) ([]*result, error) {
	small, err := cfg.census(rowsSmall)
	if err != nil {
		return nil, err
	}
	large, err := cfg.census(rowsLarge)
	if err != nil {
		return nil, err
	}
	suite, err := runLayerSuite(small, large, cfg.scale, cfg.outDir)
	if err != nil {
		return nil, err
	}

	var out []*result
	for i, w := range ws {
		t0 := time.Now()
		res := *gated[i]
		res.Traced = true
		res.Metrics, res.Samples = map[string]float64{}, map[string]int{}
		for name, v := range gated[i].Metrics {
			as := name
			if !strings.Contains(name, ".") {
				as = "client." + name
			}
			res.Metrics[as], res.Samples[as] = v, gated[i].Samples[name]
		}
		wireMetrics(&res)

		c := *cfg
		c.inproc, c.reps, c.starts = true, 1, 1
		c.sessions, c.pool = w.traceSessions, min(cfg.pool, 16)
		if cfg.sessions > 0 {
			c.sessions = cfg.sessions
		}
		plain, err := runInproc(ctx, &c, w, nil)
		if err != nil {
			return nil, fmt.Errorf("%s (untraced): %w", w.name, err)
		}
		tr := newTracer()
		traced, err := runInproc(ctx, &c, w, tr)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		if plain.scriptHash() != traced.scriptHash() {
			return nil, fmt.Errorf("%s: traced and untraced runs issued different scripts", w.name)
		}
		newReplayer(traced).run()

		for name, v := range suite {
			res.Metrics[name] = v
		}
		base, with := plain.clientTotal(), traced.clientTotal()
		res.Metrics["client.tracing_overhead_pct"] = 100 * (with - base) / base
		for _, h := range []*harness{plain, traced} {
			res.Attempted += h.attempted
			res.Failed += h.failed
			res.Failures = append(res.Failures, h.failures...)
		}
		res.Correct = res.Failed == 0
		res.WallS = time.Since(t0).Seconds()

		classOf := map[int]opClass{}
		for _, op := range traced.ops {
			classOf[op.ID] = op.Class
		}
		tables := layerTables(tr.spans, classOf)
		res.Layers = tables
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"),
			traceFile{Workload: w.name, Seed: cfg.seed, Tables: tables, Spans: tr.spans}); err != nil {
			return nil, err
		}
		out = append(out, &res)
	}
	return out, nil
}

// runInproc runs one workload's reduced script against an in-process
// server and returns the harness with everything it recorded.
func runInproc(ctx context.Context, cfg *config, w *workload, tr *tracer) (*harness, error) {
	h, err := newHarness(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	defer h.close()
	h.tr = tr
	if err := h.prepare(); err != nil {
		return nil, err
	}
	if err := h.rep(0); err != nil {
		return nil, err
	}
	return h, nil
}

// clientTotal is the summed duration of every recorded operation, in ms.
func (h *harness) clientTotal() float64 {
	total := 0.0
	for _, ds := range h.lat {
		for _, d := range ds {
			total += ms(d)
		}
	}
	return total
}

// wireMetrics files the per-operation wire work of the three gated drill
// classes as wire.<class>.<counter> metrics: the paper's cost model beside
// the wall times, exact for a seed.
func wireMetrics(res *result) {
	for _, class := range []opClass{opDrillRoot, opDrillChild, opDrillStar} {
		w := res.Wire[string(class)]
		if w == nil {
			w = &wireWork{}
		}
		n := float64(max(w.Ops, 1))
		prefix := "wire." + string(class) + "."
		res.Metrics[prefix+"passes"] = float64(w.Passes) / n
		res.Metrics[prefix+"rows_scanned"] = float64(w.RowsScanned) / n
		res.Metrics[prefix+"postings_read"] = float64(w.PostingsRead) / n
		res.Metrics[prefix+"bitmap_words_read"] = float64(w.BitmapWordsRead) / n
		res.Metrics[prefix+"sampled_rows_scanned"] = float64(w.SampledRowsScanned) / n
		res.Metrics[prefix+"cache_hits"] = float64(w.CacheHits) / n
		res.Metrics[prefix+"cache_misses"] = float64(w.CacheMisses) / n
	}
}
