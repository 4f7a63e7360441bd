package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/client"
	"smartdrill/internal/brs"
	"smartdrill/internal/drill"
	"smartdrill/internal/rule"
	"smartdrill/internal/sampling"
	"smartdrill/internal/score"
	"smartdrill/internal/search"
	"smartdrill/internal/server"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// The per-layer suite measures each package on the request path alone,
// through its public functions, on the same two tables the workloads use.
// It is the same suite whichever workload a traced run names: a layer
// metric says what that layer costs, the traced run says how much of a
// request it was. rule, score, weight and storage have no request-path
// entry point of their own and are inside the brs and drill readings.
//
// Every timing is a median over repeated calls (timeMedian); counters are
// taken from the call's own statistics and repeat exactly.

// suiteK is the rules-per-expansion every workload uses.
const suiteK = 3

type layerSuite struct {
	small, large *dataset
	scale        float64
	tmp          string // scratch directory for snapshot backends
	m            map[string]float64
	w            weight.Weighter

	// The depth-1 rules of the small table's root expansion, in display
	// order: the rules the workloads' child and star drills address.
	kids []rule.Rule
}

// runLayerSuite returns every table.*, brs.*, sampling.*, search.*,
// drill.*, server.* metric and client.roundtrip_us.
func runLayerSuite(small, large *dataset, scale float64, tmp string) (map[string]float64, error) {
	s := &layerSuite{small: small, large: large, scale: scale, tmp: tmp, m: make(map[string]float64),
		w: weight.NewSize(small.table.NumCols())}
	for _, step := range []func() error{s.tableLayer, s.brsLayer, s.samplingLayer, s.searchLayer, s.drillLayer, s.serverLayer} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return s.m, nil
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (s *layerSuite) tableLayer() error {
	// Load and index: what a cold start pays before it can listen.
	load := func(d *dataset, n int) (loadD, warmD time.Duration, err error) {
		var loads, warms []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			t, e := table.ReadCSVFile(d.csv, nil)
			if e != nil {
				return 0, 0, e
			}
			loads = append(loads, float64(time.Since(t0)))
			t0 = time.Now()
			t.Index().Warm()
			warms = append(warms, float64(time.Since(t0)))
		}
		return time.Duration(median(loads)), time.Duration(median(warms)), nil
	}
	ld, wd, err := load(s.small, 5)
	if err != nil {
		return err
	}
	s.m["table.csv_load_ms"], s.m["table.index_warm_ms"] = ms(ld), ms(wd)
	before := heapMB()
	t0 := time.Now()
	big, err := table.ReadCSVFile(s.large.csv, nil)
	if err != nil {
		return err
	}
	s.m["table.csv_load_1m_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	big.Index().Warm()
	s.m["table.index_warm_1m_ms"] = ms(time.Since(t0))
	s.m["table.heap_mb_1m"] = heapMB() - before
	runtime.KeepAlive(big)

	// The rules the drills address come from the root expansion itself.
	t := s.small.table
	t.Index().Warm()
	root, _, err := brs.Run(t.All(), s.w, brs.Options{K: suiteK, MaxWeight: drill.EstimateMaxWeight(t.All(), s.w, suiteK, 1)})
	if err != nil {
		return err
	}
	if len(root) < suiteK {
		return fmt.Errorf("layer suite: root expansion returned %d rules, want %d", len(root), suiteK)
	}
	for _, r := range root {
		s.kids = append(s.kids, r.Rule)
	}

	// Point reads under one depth-1 rule: view resolution (Lookup), the
	// galloping intersection walk, and the bitmap AND+popcount kernel.
	ix := t.Index()
	r := s.kids[0]
	var read int64
	s.m["table.lookup_us"] = us(timeMedian(50, func() { _, read = ix.Lookup(r) }))
	s.m["table.lookup_postings_read"] = float64(read)
	var lists [][]int32
	var sets []*table.Bitset
	for _, c := range r.InstantiatedColumns() {
		lists = append(lists, ix.Postings(c, r[c]))
		if b := ix.Bitmap(c, r[c]); b != nil {
			sets = append(sets, b)
		}
	}
	all := t.All()
	s.m["table.eachinall_us"] = us(timeMedian(50, func() { all.EachInAll(lists, func(int, int) {}) }))
	var words int64
	s.m["table.andcount_us"] = us(timeMedian(200, func() { _, words = table.AndCount(sets) }))
	s.m["table.andcount_words_read"] = float64(words)

	// Restricting a sample view to a rule: the sampled child drill's view.
	sample := sampleView(s.large.table, int(minSampleSize*s.scale))
	lr, err := s.large.table.EncodeRule(decode(t, r))
	if err != nil {
		return err
	}
	s.m["table.view_refine_us"] = us(timeMedian(50, func() { sample.Refine(lr) }))
	return nil
}

// decode turns an encoded rule into the column→value pattern, so a rule
// found on one table can be addressed on another with its own dictionary.
func decode(t *table.Table, r rule.Rule) map[string]string {
	cells := t.DecodeRule(r)
	out := map[string]string{}
	for _, c := range r.InstantiatedColumns() {
		out[t.ColumnNames()[c]] = cells[c]
	}
	return out
}

// sampleView is a fixed pseudo-random subset of t's rows.
func sampleView(t *table.Table, n int) *table.View {
	rng := sampling.NewTestRNG(1)
	pos := make([]int, n)
	for i := range pos {
		pos[i] = rng.Intn(t.NumRows())
	}
	return t.All().Subset(pos)
}

func (s *layerSuite) brsLayer() error {
	t := s.small.table
	all := t.All()
	var mw float64
	s.m["drill.mw_estimate_ms"] = ms(timeMedian(5, func() { mw = drill.EstimateMaxWeight(all, s.w, suiteK, 1) }))

	// The root search as it is served: K=3 at the *estimated* mw.
	var st brs.Stats
	var err error
	const rootRuns = 3
	m0 := mallocs()
	s.m["brs.root_ms"] = ms(timeMedian(rootRuns, func() {
		if _, stats, e := brs.Run(all, s.w, brs.Options{K: suiteK, MaxWeight: mw}); e != nil {
			err = e
		} else {
			st = stats
		}
	}))
	if err != nil {
		return err
	}
	s.m["brs.root_allocs"] = float64(mallocs()-m0) / rootRuns
	s.m["brs.root_passes"] = float64(st.Passes)
	s.m["brs.root_rows_scanned"] = float64(st.RowsScanned)
	s.m["brs.root_postings_read"] = float64(st.PostingsRead)
	s.m["brs.root_bitmap_words_read"] = float64(st.BitmapWordsRead)
	s.m["brs.root_candidates_counted"] = float64(st.CandidatesCounted)
	// K=4 at mw=4 is benchcfg's "Census" case: the one number that links
	// this file to the BENCH_*.json kernel series.
	s.m["brs.root_fixedmw_ms"] = ms(timeMedian(3, func() { brs.Run(all, s.w, brs.Options{K: 4, MaxWeight: 4}) })) //nolint:errcheck // fixed valid options

	// A depth-1 rule drill and a star drill, on the views the server
	// resolves for them.
	sub := func(r rule.Rule, w weight.Weighter) (time.Duration, error) {
		rows, _ := t.Index().Lookup(r)
		v := t.ViewOf(rows)
		opts := brs.Options{K: suiteK, MaxWeight: drill.EstimateMaxWeight(v, w, suiteK, 1), Base: r, BaseCovered: true}
		if _, _, err := brs.Run(v, w, opts); err != nil {
			return 0, err
		}
		return timeMedian(7, func() { brs.Run(v, w, opts) }), nil //nolint:errcheck // same inputs just succeeded
	}
	d, err := sub(s.kids[0], s.w)
	if err != nil {
		return err
	}
	s.m["brs.child_ms"] = ms(d)
	// The mw probe on a depth-1 view costs more than the search it tunes
	// (0.24 s against 13 ms on census-100k): it runs BRS unbounded on 2000
	// rows that all share the drilled rule's columns.
	rows, _ := t.Index().Lookup(s.kids[0])
	childView := t.ViewOf(rows)
	s.m["drill.mw_estimate_child_ms"] = ms(timeMedian(3, func() { drill.EstimateMaxWeight(childView, s.w, suiteK, 1) }))
	starRule := s.kids[2]
	col := -1
	for c := range starRule {
		if starRule[c] == rule.Star {
			col = c
			break
		}
	}
	if col < 0 {
		return fmt.Errorf("layer suite: third root rule leaves no column to star-drill")
	}
	if d, err = sub(starRule, weight.StarConstraint{Inner: s.w, Column: col}); err != nil {
		return err
	}
	s.m["brs.star_ms"] = ms(d)

	// The anytime search behind /drill/stream?max_rules=3 at the root.
	var first, done []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		n := 0
		_, err := brs.RunIncrementalCtx(context.Background(), all, s.w,
			brs.Options{MaxWeight: mw, MinGainRatio: 0.01}, 3, time.Now().Add(5*time.Second),
			func(brs.Result) bool {
				if n == 0 {
					first = append(first, float64(time.Since(t0)))
				}
				n++
				return true
			})
		if err != nil {
			return err
		}
		done = append(done, float64(time.Since(t0)))
	}
	s.m["brs.stream_first_rule_ms"] = ms(time.Duration(median(first)))
	s.m["brs.stream_done_ms"] = ms(time.Duration(median(done)))
	return nil
}

// newHandler builds the sample handler a sampled session on the large
// table gets.
func (s *layerSuite) newHandler() (*sampling.Handler, error) {
	return sampling.NewHandler(storage.NewStore(s.large.table),
		int(sampleMemory*s.scale), int(minSampleSize*s.scale), sampling.NewTestRNG(1))
}

func (s *layerSuite) samplingLayer() error {
	t := s.large.table
	triv := rule.Trivial(t.NumCols())
	var kids []rule.Rule
	for _, r := range s.kids {
		lr, err := t.EncodeRule(decode(s.small.table, r))
		if err != nil {
			return err
		}
		kids = append(kids, lr)
	}
	// First request on an empty handler scans the table (Create), the
	// second is served from memory (Find), a sub-rule is assembled from
	// the parent's sample or created (Combine/Create).
	var creates, finds, subs []float64
	var h *sampling.Handler
	var rootView *sampling.View
	for i := 0; i < 3; i++ {
		var err error
		if h, err = s.newHandler(); err != nil {
			return err
		}
		t0 := time.Now()
		if rootView, err = h.GetSample(triv); err != nil {
			return err
		}
		creates = append(creates, float64(time.Since(t0)))
		t0 = time.Now()
		if _, err = h.GetSample(triv); err != nil {
			return err
		}
		finds = append(finds, float64(time.Since(t0)))
		for _, r := range kids {
			t0 = time.Now()
			if _, err = h.GetSample(r); err != nil {
				return err
			}
			subs = append(subs, float64(time.Since(t0)))
		}
	}
	s.m["sampling.create_ms"] = ms(time.Duration(median(creates)))
	s.m["sampling.find_us"] = us(time.Duration(median(finds)))
	s.m["sampling.subrule_ms"] = ms(time.Duration(median(subs)))
	f, c, cr := h.Stats()
	s.m["sampling.finds"], s.m["sampling.combines"], s.m["sampling.creates"] = float64(f), float64(c), float64(cr)
	s.m["sampling.memory_rows"] = float64(h.MemoryUsed())

	// BRS over the root sample, as a sampled root drill runs it.
	w := weight.NewSize(t.NumCols())
	opts := brs.Options{K: suiteK, MaxWeight: drill.EstimateMaxWeight(rootView.Tab, w, suiteK, 1), SampleScale: rootView.Scale}
	res, st, err := brs.Run(rootView.Tab, w, opts)
	if err != nil {
		return err
	}
	s.m["brs.sample_ms"] = ms(timeMedian(5, func() { brs.Run(rootView.Tab, w, opts) })) //nolint:errcheck // same inputs just succeeded
	s.m["brs.sample_rows_scanned"] = float64(st.SampledRowsScanned)

	// Accuracy of what that search displays, against the full scan.
	var errs []float64
	covered := 0
	for _, r := range res {
		truth := float64(t.Count(r.Rule))
		if truth > 0 {
			errs = append(errs, math.Abs(r.Count-truth)/truth)
		}
		lo, hi := sampling.CountInterval(int(math.Round(r.Count/rootView.Scale)), 1/rootView.Scale, 1.96)
		if lo <= truth && truth <= hi {
			covered++
		}
	}
	s.m["sampling.rel_err_p50"] = median(errs)
	s.m["sampling.ci_coverage"] = float64(covered) / float64(len(res))
	return nil
}

// rootRequest is the search request a default session's root drill makes.
func (s *layerSuite) rootRequest(t *table.Table) search.Request {
	return search.Request{
		Kind:     search.KindBatch,
		Rule:     rule.Trivial(t.NumCols()),
		K:        suiteK,
		Weighter: s.w,
		Agg:      score.CountAgg{},
		Seed:     1,
		Store:    storage.NewStore(t),
		Resolve:  func() (*table.View, float64, bool, error) { return t.All(), 1, true, nil },
		MaxWeightFor: func(v *table.View) float64 {
			return drill.EstimateMaxWeight(v, s.w, suiteK, 1)
		},
	}
}

func (s *layerSuite) searchLayer() error {
	svc := search.NewService(search.Config{})
	req := s.rootRequest(s.small.table)
	ctx := context.Background()
	t0 := time.Now()
	if _, err := svc.Run(ctx, req); err != nil {
		return err
	}
	s.m["search.miss_ms"] = ms(time.Since(t0)) // one run: this is a whole root search
	const n = 2000
	m0 := mallocs()
	s.m["search.hit_us"] = us(timeMedian(n, func() { svc.Run(ctx, req) })) //nolint:errcheck // a cached key cannot fail
	s.m["search.hit_allocs"] = float64(mallocs()-m0) / n
	return nil
}

// baseTree drills eng to the 13-node base tree (root, 3 children, 9
// grandchildren) and, when deep, on to 22 nodes by expanding the first
// grandchild under each child.
func baseTree(eng *smartdrill.Engine, deep bool) error {
	if err := eng.DrillDown(eng.Root()); err != nil {
		return err
	}
	for _, c := range eng.Root().Children {
		if err := eng.DrillDown(c); err != nil {
			return err
		}
	}
	if deep {
		for _, c := range eng.Root().Children {
			if len(c.Children) > 0 {
				if err := eng.DrillDown(c.Children[0]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (s *layerSuite) drillLayer() error {
	t := s.small.table
	// Uncached expansions: the engine's whole cost above search.
	cold, err := smartdrill.New(t, smartdrill.WithK(suiteK), smartdrill.WithCacheDisabled())
	if err != nil {
		return err
	}
	s.m["drill.expand_root_ms"] = ms(timeMedian(3, func() { cold.DrillDown(cold.Root()) })) //nolint:errcheck // checked by the hit loop below
	if len(cold.Root().Children) == 0 {
		return fmt.Errorf("layer suite: root expansion produced no children")
	}
	c0 := cold.Root().Children[0]
	s.m["drill.expand_child_ms"] = ms(timeMedian(5, func() { cold.DrillDown(c0) })) //nolint:errcheck // same engine, same node

	// A cache hit at the engine: lookup, clone, node adoption.
	svc := smartdrill.NewSearchService(smartdrill.SearchServiceConfig{})
	hot, err := smartdrill.New(t, smartdrill.WithK(suiteK), smartdrill.WithSearchService(svc))
	if err != nil {
		return err
	}
	if err := baseTree(hot, true); err != nil {
		return err
	}
	hot.Collapse(hot.Root())
	s.m["drill.expand_hit_us"] = us(timeMedian(2000, func() { hot.DrillDown(hot.Root()) })) //nolint:errcheck // a cached key cannot fail

	s.m["drill.new_session_us"] = us(timeMedian(50, func() { smartdrill.New(t, smartdrill.WithK(suiteK)) }))               //nolint:errcheck // valid options
	s.m["drill.new_session_1m_us"] = us(timeMedian(9, func() { smartdrill.New(s.large.table, smartdrill.WithK(suiteK)) })) //nolint:errcheck // valid options

	// Snapshot cost against tree size: 13 and 22 displayed nodes.
	for _, sz := range []struct {
		suffix string
		deep   bool
	}{{"", false}, {"_22", true}} {
		eng, err := smartdrill.New(t, smartdrill.WithK(suiteK), smartdrill.WithSearchService(svc))
		if err != nil {
			return err
		}
		if err := baseTree(eng, sz.deep); err != nil {
			return err
		}
		var buf bytes.Buffer
		s.m["drill.save"+sz.suffix+"_us"] = us(timeMedian(500, func() {
			buf.Reset()
			eng.SaveState(&buf) //nolint:errcheck // a bytes.Buffer cannot fail
		}))
		s.m["drill.snapshot"+sz.suffix+"_bytes"] = float64(buf.Len())
		if !sz.deep {
			snap := append([]byte(nil), buf.Bytes()...)
			var loadErr error
			s.m["drill.load_us"] = us(timeMedian(200, func() {
				fresh, err := smartdrill.New(t, smartdrill.WithK(suiteK), smartdrill.WithSearchService(svc))
				if err == nil {
					err = fresh.LoadState(bytes.NewReader(snap))
				}
				if err != nil {
					loadErr = err
				}
			}))
			if loadErr != nil {
				return loadErr
			}
		}
	}

	// Exact re-count of one provisional rule on the large table.
	sampled, err := smartdrill.New(s.large.table, smartdrill.WithK(suiteK),
		smartdrill.WithSampling(int(sampleMemory*s.scale), int(minSampleSize*s.scale)),
		smartdrill.WithSampleThreshold(int(sampleThreshold*s.scale)))
	if err != nil {
		return err
	}
	if err := sampled.DrillDown(sampled.Root()); err != nil {
		return err
	}
	var refines []float64
	for _, c := range sampled.Root().Children {
		t0 := time.Now()
		if sampled.RefineNode(c) {
			refines = append(refines, float64(time.Since(t0)))
		}
	}
	if len(refines) == 0 {
		return fmt.Errorf("layer suite: sampled root drill produced no provisional rule to refine")
	}
	s.m["drill.refine_node_ms"] = ms(time.Duration(median(refines)))
	return nil
}

// recorderDo serves one request on h without a network and returns the
// status, the body and the time ServeHTTP took.
func recorderDo(h http.Handler, method, path string, body any) (int, []byte, time.Duration) {
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body) // request DTOs are plain data
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// serverBench is an in-process server with the dataset registered and its
// answer cache filled by one full base-tree session.
type serverBench struct {
	srv *server.Server
	h   http.Handler
}

func newServerBench(t *table.Table, backend server.SessionBackend) (*serverBench, error) {
	srv := server.New(server.Config{Backend: backend, Logger: log.New(io.Discard, "", 0)})
	srv.RegisterDataset(datasetName, t)
	b := &serverBench{srv: srv, h: srv.Handler()}
	id, err := b.session()
	if err != nil {
		return nil, err
	}
	b.del(id)
	return b, nil
}

// session creates a session drilled to the 13-node base tree.
func (b *serverBench) session() (string, error) {
	code, raw, _ := recorderDo(b.h, "POST", "/v1/sessions", api.CreateSessionRequest{Dataset: datasetName})
	var tree api.Tree
	if err := json.Unmarshal(raw, &tree); err != nil || code != http.StatusCreated {
		return "", fmt.Errorf("layer suite: create answered %d: %s", code, raw)
	}
	drill := func(node string) (*api.Node, error) {
		code, raw, _ := recorderDo(b.h, "POST", "/v1/sessions/"+tree.ID+"/drill", api.DrillRequest{Node: node})
		var resp api.DrillResponse
		if err := json.Unmarshal(raw, &resp); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("layer suite: drill answered %d: %s", code, raw)
		}
		return resp.Node, nil
	}
	root, err := drill(tree.Root.ID)
	if err != nil {
		return "", err
	}
	for _, c := range root.Children {
		if _, err := drill(c.ID); err != nil {
			return "", err
		}
	}
	return tree.ID, nil
}

func (b *serverBench) del(id string) { recorderDo(b.h, "DELETE", "/v1/sessions/"+id, nil) }

// hitDrill times collapsing and re-drilling the root of a base-tree
// session: the drill is a cache hit, the collapse its inverse.
func (b *serverBench) hitDrill(id string, n int) (drillD, collapseD time.Duration) {
	var ds, cs []float64
	for i := 0; i < n; i++ {
		_, _, c := recorderDo(b.h, "POST", "/v1/sessions/"+id+"/collapse", api.DrillRequest{})
		_, _, d := recorderDo(b.h, "POST", "/v1/sessions/"+id+"/drill", api.DrillRequest{})
		ds, cs = append(ds, float64(d)), append(cs, float64(c))
	}
	return time.Duration(median(ds)), time.Duration(median(cs))
}

func (s *layerSuite) serverLayer() error {
	t := s.small.table
	mem, err := newServerBench(t, nil)
	if err != nil {
		return err
	}
	var creates []float64
	for i := 0; i < 200; i++ {
		code, raw, d := recorderDo(mem.h, "POST", "/v1/sessions", api.CreateSessionRequest{Dataset: datasetName})
		var tree api.Tree
		if err := json.Unmarshal(raw, &tree); err != nil || code != http.StatusCreated {
			return fmt.Errorf("layer suite: create answered %d: %s", code, raw)
		}
		creates = append(creates, float64(d))
		mem.del(tree.ID)
	}
	s.m["server.create_us"] = us(time.Duration(median(creates)))
	id, err := mem.session()
	if err != nil {
		return err
	}
	var trees []float64
	var treeBytes int
	for i := 0; i < 500; i++ {
		_, raw, d := recorderDo(mem.h, "GET", "/v1/sessions/"+id+"/tree", nil)
		trees, treeBytes = append(trees, float64(d)), len(raw)
	}
	s.m["server.tree_us"] = us(time.Duration(median(trees)))
	s.m["server.tree_response_bytes"] = float64(treeBytes)
	d, c := mem.hitDrill(id, 500)
	s.m["server.drill_hit_us"], s.m["server.collapse_us"] = us(d), us(c)

	// The same hit with a snapshot directory behind the server: every
	// mutation serialises the tree and fsyncs before it answers.
	dir, err := os.MkdirTemp(s.tmp, "layers-snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	backend, err := server.NewDirBackend(dir)
	if err != nil {
		return err
	}
	dur, err := newServerBench(t, backend)
	if err != nil {
		return err
	}
	const resident = 64
	var ids []string
	for i := 0; i < resident; i++ {
		id, err := dur.session()
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	d, _ = dur.hitDrill(ids[0], 300)
	s.m["server.drill_hit_durable_us"] = us(d)
	if n := dur.srv.PersistFailures(); n != 0 {
		return fmt.Errorf("layer suite: %d snapshot writes failed", n)
	}

	// The backend alone, on a record the server itself wrote.
	rec, err := backend.Load(ids[1])
	if err != nil {
		return err
	}
	var saveErr error
	s.m["server.backend_save_us"] = us(timeMedian(300, func() {
		if err := backend.Save(ids[1], rec); err != nil {
			saveErr = err
		}
	}))
	if saveErr != nil {
		return saveErr
	}
	s.m["server.backend_save_bytes"] = float64(len(rec))
	s.m["server.backend_load_us"] = us(timeMedian(300, func() { backend.Load(ids[1]) })) //nolint:errcheck // the same id just loaded

	// What a restart pays before it listens: indexing the snapshots.
	var recoverErr error
	s.m["server.recover_ms"] = ms(timeMedian(5, func() {
		fresh := server.New(server.Config{Backend: backend, Logger: log.New(io.Discard, "", 0)})
		fresh.RegisterDataset(datasetName, t)
		if n, err := fresh.RecoverSessions(); err != nil || n != resident {
			recoverErr = fmt.Errorf("layer suite: recovered %d of %d sessions: %v", n, resident, err)
		}
	}))
	if recoverErr != nil {
		return recoverErr
	}

	// The floor under every hot request: SDK + net/http + JSON over
	// loopback with no engine behind it.
	ts := httptest.NewServer(mem.h)
	defer ts.Close()
	c2 := client.New(ts.URL, client.WithRetryPolicy(client.NoRetries()))
	ctx := context.Background()
	var rtErr error
	s.m["client.roundtrip_us"] = us(timeMedian(2000, func() {
		if _, err := c2.Health(ctx); err != nil {
			rtErr = err
		}
	}))
	if rtErr != nil {
		return rtErr
	}
	return nil
}
