package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"smartdrill/api"
	"smartdrill/client"
)

// config is one invocation's settings.
type config struct {
	root   string // checkout root (where go.mod is)
	outDir string // root/bench/out: everything drillload writes
	bin    string // built smartdrilld
	seed   int64
	// seconds is the measured time per workload, split evenly over reps.
	seconds float64
	reps    int
	// sessions > 0 switches every repetition from time-bounded to exactly
	// this many sessions (visits on the durable workload), so two runs do
	// identical work and their scripts and work counters can be compared.
	sessions int
	// scale multiplies dataset rows and sampling parameters: 1 outside
	// the tests, which run at a few percent of full size.
	scale float64
	// data shares loaded tables between the harnesses of one invocation
	// (see census); copies of a config share the map.
	data map[datasetSpec]*dataset
	// pool is the number of resident sessions on the durable workload.
	pool int
	// starts is how many timed set-ups a non-durable workload performs at
	// least; cheap ones are repeated further (see prepare).
	starts int
	// probeCreates is how many create/delete pairs every repetition adds
	// outside the throughput window. Session create is O(rows) today and a
	// named optimisation target, but the cold workloads open only one
	// session per repetition; 100 pairs give create_p50_ms a sample worth
	// a median on every workload at a cost of 0.1 s (0.4 s on the
	// million-row table).
	probeCreates int
	// inproc hosts the server in this process instead of exec'ing
	// smartdrilld (traced runs).
	inproc bool
	// keepScript retains every request line in memory (determinism test).
	keepScript bool
	// tamper, when set, corrupts decoded drill responses of the measured
	// phase before they are verified (smoke test: the checks must notice).
	tamper func(*api.DrillResponse)
}

// opClass groups operations whose latencies are reported together.
type opClass string

const (
	opCreate      opClass = "create"
	opDrillRoot   opClass = "drill_root"
	opDrillChild  opClass = "drill_child" // depth-1 rule drills
	opDrillGC     opClass = "drill_gc"    // depth-2 rule drills
	opDrillStar   opClass = "drill_star"
	opStream      opClass = "stream" // SSE open → done
	opTraditional opClass = "traditional"
	opTree        opClass = "tree"
	opCollapse    opClass = "collapse"
	opDelete      opClass = "delete"
	opResume      opClass = "resume" // first tree fetch after a restart
)

// drillClasses are the classes whose responses carry a search block.
var drillClasses = []opClass{opDrillRoot, opDrillChild, opDrillGC, opDrillStar}

// block is one slice of a throughput window: the workload's own script,
// without the probe, the verification fetches or the restart. Windows are
// cut into blocks of at least minBlock so that throughput and CPU per
// operation can be read per slice of time, not only per run.
type block struct {
	ops     int
	elapsed time.Duration
	cpu     int64 // server utime+stime ticks spent in the block
}

// minBlock keeps a block's CPU reading (10 ms ticks) within about 2 %.
const minBlock = time.Second

// wireWork sums the search blocks of one class's drill responses: the
// paper's cost model (passes, rows and postings read) beside wall time.
type wireWork struct {
	Ops                int   `json:"ops"`
	Passes             int64 `json:"passes"`
	RowsScanned        int64 `json:"rows_scanned"`
	PostingsRead       int64 `json:"postings_read"`
	BitmapWordsRead    int64 `json:"bitmap_words_read"`
	SampledRowsScanned int64 `json:"sampled_rows_scanned"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
}

// harness drives one workload against one server.
type harness struct {
	cfg *config
	w   *workload
	ds  *dataset
	chk *checker
	ctx context.Context

	srv  host
	hc   *http.Client
	c    *client.Client
	logs string // server stderr
	// serverArgs is the argv of the last smartdrilld started.
	serverArgs []string
	snap       string // snapshot directory (durable)

	rng  *rand.Rand
	twin map[string]string // expected rendered trees (hot-shared)

	// Resident sessions of the durable workload.
	pool []*session

	// recording is false while warming up: ops run and are verified, not
	// recorded. lat holds every recorded latency per class in issue order.
	recording bool
	lat       map[opClass][]time.Duration
	firstRule []time.Duration // SSE open → first rule event
	blocks    []block
	inWindow  bool
	winOps    int // operations of the block being filled
	// Totals over every throughput window: operations, response body
	// bytes, drill requests and the search work their responses reported.
	// These are counts, not times: they do not move with the box's speed.
	totalOps, winDrills int
	winBytes, winWork   int64
	// units is how many script units (sessions, visits) the windows ran and
	// winCount how many samples of each class they produced: a class that
	// comes several to a unit (three different children) is blocked in
	// whole units, so that a block median is a median over the mix.
	units    int
	winCount map[opClass]int
	setup    []time.Duration
	restart  []time.Duration
	wire     map[opClass]*wireWork
	cache0   api.CacheHealth // health counters when the first repetition began
	cacheD   api.CacheHealth // their growth over all measured phases

	attempted, failed int
	failures          []string
	persistFailures   uint64
	// peakRSS is VmHWM in MiB, read at the end of each repetition, per
	// server process: one entry, overwritten, where one process serves the
	// whole run; one per restart on the durable workload.
	peakRSS map[int]float64

	nextOrd int
	digest  hash.Hash
	script  []string

	// Traced runs: tr records spans, ops keeps every operation for the
	// twin replay, curOp is the operation in flight.
	tr     *tracer
	ops    []opRecord
	nextOp int
	curOp  int
}

func newHarness(ctx context.Context, cfg *config, w *workload) (*harness, error) {
	rows := rowsSmall
	if w.large {
		rows = rowsLarge
	}
	ds, err := cfg.census(rows)
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:      cfg,
		w:        w,
		ds:       ds,
		chk:      newChecker(ds.table),
		ctx:      ctx,
		logs:     filepath.Join(cfg.outDir, w.name+".log"),
		rng:      rand.New(rand.NewSource(cfg.seed)),
		peakRSS:  make(map[int]float64),
		lat:      make(map[opClass][]time.Duration),
		winCount: make(map[opClass]int),
		wire:     make(map[opClass]*wireWork),
		digest:   sha256.New(),
	}
	if err := os.Remove(h.logs); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return h, nil
}

// close stops the server and removes the snapshot directory. It runs on
// every exit path of a run (deferred by the caller, and from the signal
// handler through context cancellation).
func (h *harness) close() {
	h.stop()
	if h.snap != "" {
		os.RemoveAll(h.snap)
	}
}

func (h *harness) stop() {
	if h.srv != nil {
		h.srv.kill()
		h.srv = nil
	}
	if h.hc != nil {
		h.hc.CloseIdleConnections()
	}
}

// start execs a server and waits until it is ready, returning the time
// from exec to readiness.
func (h *harness) start() (time.Duration, error) {
	flags := h.w.flags
	if h.w.durable {
		flags = append(append([]string{}, flags...), "-snapshot-dir", h.snap)
	}
	t0 := time.Now()
	var srv host
	var err error
	if h.cfg.inproc {
		srv, err = startInproc(h)
	} else {
		var p *serverProc
		if p, err = startServer(h.cfg.bin, h.ds.csv, h.logs, flags); err == nil {
			srv, h.serverArgs = p, p.args
		}
	}
	if err != nil {
		return 0, err
	}
	h.srv = srv
	// One transport per server incarnation: a kept-alive connection to a
	// killed server must not be offered to its successor's first request.
	var rt http.RoundTripper = byteCounter{base: &http.Transport{MaxIdleConnsPerHost: 2}, h: h}
	if h.tr != nil {
		rt = opIDTransport{base: rt, tr: h.tr}
	}
	h.hc = &http.Client{Transport: rt}
	h.c = client.New(srv.url(), client.WithHTTPClient(h.hc), client.WithRetryPolicy(client.NoRetries()))
	ctx, cancel := context.WithTimeout(h.ctx, 2*time.Minute)
	defer cancel()
	if _, err := waitReady(ctx, srv.exited(), h.c, h.w.warmed); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// byteCounter adds every response body byte read inside a throughput
// window to the harness's count.
type byteCounter struct {
	base http.RoundTripper
	h    *harness
}

func (b byteCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := b.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, h: b.h}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	h *harness
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	if c.h.inWindow {
		c.h.winBytes += int64(n)
	}
	return n, err
}

// prepare brings the workload to the point where repetitions can run: the
// timed set-ups, the in-process reference trees, and one unmeasured pass
// of the script (lazy bitmaps, heap growth, connections, answer cache).
func (h *harness) prepare() error {
	if h.w.name == "hot-shared" {
		h.twin = twinTrees(h.ds.table)
	}
	if h.w.durable {
		dir, err := os.MkdirTemp(h.cfg.outDir, "snap-")
		if err != nil {
			return err
		}
		h.snap = dir
		// The durable workload's set-up is measured at each restart
		// instead (see restartCycle); this first start is on an empty
		// directory and would say nothing about recovery.
		if _, err := h.start(); err != nil {
			return err
		}
	} else {
		// At least cfg.starts set-ups; a set-up of tens of milliseconds is
		// repeated until a second and a half has gone into them (at most
		// three times as many), because its median needs the samples more.
		var spent time.Duration
		for i := 0; i < h.cfg.starts || (spent < 1500*time.Millisecond && i < 3*h.cfg.starts); i++ {
			h.stop()
			d, err := h.start()
			if err != nil {
				return err
			}
			h.setup = append(h.setup, d)
			spent += d
		}
	}
	h.warmUp()
	if h.failed > 0 {
		return fmt.Errorf("warm-up failed: %s", h.failures[0])
	}
	hl, err := h.c.Health(h.ctx)
	if err != nil {
		return err
	}
	h.cache0 = cacheOf(hl)
	return nil
}

// warmUp runs the script once unrecorded (h.recording is false until the
// first repetition), and a traditional listing on every column: listings go
// through the answer cache too, the script draws their column from the
// seed, and a hot phase must not be the first to ask for one.
func (h *harness) warmUp() {
	if h.w.durable {
		h.rewarm()
	} else {
		h.w.session(h)
	}
	s := h.create(api.CreateSessionRequest{Dataset: datasetName})
	for _, col := range s.columns {
		s.traditional(s.root, col)
	}
	s.delete()
	h.probe()
}

// rep runs one measured repetition: the throughput window (the workload's
// own script for its share of the time budget), then the probe, then — on
// the durable workload — the kill/restart/resume cycle.
func (h *harness) rep(i int) error {
	h.recording = true
	budget := time.Duration(h.cfg.seconds / float64(h.cfg.reps) * float64(time.Second))

	start := time.Now()
	mark := start
	cpu0, err := cpuTicks(h.srv.pid())
	if err != nil {
		return err
	}
	h.inWindow, h.winOps = true, 0
	// cut closes the block being filled. The last block of a window is
	// folded into its predecessor when it is too short to stand alone.
	cut := func(last bool) error {
		now := time.Now()
		if now.Sub(mark) < minBlock && !last {
			return nil
		}
		cpu1, err := cpuTicks(h.srv.pid())
		if err != nil {
			return err
		}
		b := block{ops: h.winOps, elapsed: now.Sub(mark), cpu: cpu1 - cpu0}
		if n := len(h.blocks); last && b.elapsed < minBlock/2 && n > 0 && mark != start {
			h.blocks[n-1].ops += b.ops
			h.blocks[n-1].elapsed += b.elapsed
			h.blocks[n-1].cpu += b.cpu
		} else if b.ops > 0 {
			h.blocks = append(h.blocks, b)
		}
		mark, cpu0, h.winOps = now, cpu1, 0
		return nil
	}
	if h.w.durable {
		h.fillPool()
	}
	for n, last := 0, time.Duration(0); ; n++ {
		if h.cfg.sessions > 0 {
			if n == h.cfg.sessions {
				break
			}
		} else if n > 0 && (time.Since(start)+last > budget || h.ctx.Err() != nil) {
			// A session that would overrun the budget is not started; the
			// first one always is, so a slow box still measures something.
			break
		}
		t := time.Now()
		h.w.session(h)
		h.units++
		last = time.Since(t)
		if err := cut(false); err != nil {
			return err
		}
	}
	if err := cut(true); err != nil {
		return err
	}
	h.inWindow = false

	h.probe()
	hl, err := h.c.Health(h.ctx)
	if err != nil {
		return err
	}
	// Counters restart from zero with the process, so the durable
	// workload's growth is summed per incarnation.
	c := cacheOf(hl)
	h.cacheD.Hits += c.Hits - h.cache0.Hits
	h.cacheD.Misses += c.Misses - h.cache0.Misses
	h.cacheD.SingleflightWaits += c.SingleflightWaits - h.cache0.SingleflightWaits
	h.cache0 = c
	h.persistFailures += hl.PersistFailures
	rss, err := peakRSSMB(h.srv.pid())
	if err != nil {
		return err
	}
	h.peakRSS[h.srv.pid()] = rss

	if h.w.durable {
		if err := h.restartCycle(i == h.cfg.reps-1); err != nil {
			return err
		}
	}
	h.recording = false
	return nil
}

// probeStreams is how many times the stream probe streams child[0].
const probeStreams = 4

// probe is identical on every workload, apart from the stream part (see
// workload.streamProbe).
func (h *harness) probe() {
	req := api.CreateSessionRequest{Dataset: datasetName}
	if h.w.sampled {
		req = h.sampledCreate()
	}
	for i := 0; i < h.cfg.probeCreates; i++ {
		h.create(req).delete()
	}
	if h.w.streamProbe {
		s := h.create(req)
		root := s.drill(opDrillRoot, s.root, "")
		for i := 0; i < probeStreams; i++ {
			s.stream(child(root, 0), 3)
			s.collapse(child(root, 0))
		}
		s.delete()
	}
}

// begin opens one operation: its line goes into the script digest, and in
// a traced run it becomes the operation requests and backend calls are
// filed under. Session ids are server-minted and random, so a session is
// named by its ordinal.
func (h *harness) begin(op opRecord) {
	h.nextOp++
	op.ID = h.nextOp
	h.curOp = op.ID
	line := fmt.Sprintf("%s s%d %s %q %d", op.Kind, op.Sess, op.Node, op.Column, op.MaxRules)
	if op.Create != nil {
		body, _ := json.Marshal(op.Create) // a plain struct of scalars cannot fail to marshal
		line += " " + string(body)
	}
	fmt.Fprintln(h.digest, line)
	if h.cfg.keepScript {
		h.script = append(h.script, line)
	}
	if h.tr != nil {
		h.tr.op.Store(int64(op.ID))
		h.ops = append(h.ops, op)
	}
}

func (h *harness) scriptHash() string { return hex.EncodeToString(h.digest.Sum(nil)) }

// file records the outcome of one issued operation.
func (h *harness) file(class opClass, d time.Duration, err error) bool {
	h.attempted++
	if err != nil {
		h.fail(fmt.Sprintf("%s: %v", class, err))
		return false
	}
	if h.recording {
		h.lat[class] = append(h.lat[class], d)
		if h.inWindow {
			h.winOps++
			h.totalOps++
			h.winCount[class]++
		}
		if h.tr != nil {
			end := h.tr.now()
			h.tr.add(span{Op: h.curOp, Layer: "client", Name: string(class), Start: end - int64(d), End: end})
		}
	}
	return true
}

// fail marks the operation just filed as failed (transport error, API
// error, or a correctness check that did not hold).
func (h *harness) fail(msg string) {
	h.failed++
	if len(h.failures) < 10 {
		h.failures = append(h.failures, msg)
	}
}

// opCtx bounds one request; nothing in any script legitimately takes
// longer, and a hung server must fail the run, not hang it.
func (h *harness) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(h.ctx, 90*time.Second)
}

// sampledCreate is the create request of a sampled session. Its sampling
// seed comes from the run's generator, so the server is handed a number
// that is neither -seed nor derivable from it without the generator.
func (h *harness) sampledCreate() api.CreateSessionRequest {
	return api.CreateSessionRequest{
		Dataset:         datasetName,
		SampleMemory:    int(sampleMemory * h.cfg.scale),
		MinSampleSize:   int(minSampleSize * h.cfg.scale),
		SampleThreshold: int(sampleThreshold * h.cfg.scale),
		Seed:            1 + h.rng.Int63n(1<<40),
	}
}

// pickColumn draws the column of a traditional listing.
func (h *harness) pickColumn(s *session) string {
	if len(s.columns) == 0 {
		return ""
	}
	return s.columns[h.rng.Intn(len(s.columns))]
}

// session is one server-side session as the script sees it.
type session struct {
	h       *harness
	id      string
	ord     int
	columns []string
	root    *api.Node
	dead    bool // an earlier op failed; the rest of the script is skipped
	// Resident (durable) sessions remember their base tree.
	base *api.Node
}

func (s *session) skip(n *api.Node) bool {
	if s.dead {
		return true
	}
	if n == nil {
		s.h.attempted++
		s.h.fail(fmt.Sprintf("session %d: the script addresses a node the tree does not have", s.ord))
		s.dead = true
		return true
	}
	return false
}

func (h *harness) create(req api.CreateSessionRequest) *session {
	s := &session{h: h, ord: h.nextOrd}
	h.nextOrd++
	h.begin(opRecord{Class: opCreate, Kind: "create", Sess: s.ord, Create: &req})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	tree, err := h.c.CreateSession(ctx, req)
	if !h.file(opCreate, time.Since(t0), err) {
		s.dead = true
		return s
	}
	s.id, s.columns, s.root = tree.ID, tree.Columns, tree.Root
	if err := h.chk.subtree(tree.Root); err != nil {
		h.fail(err.Error())
	}
	return s
}

// drill expands n (a star drill when column is set) and returns the
// expanded node as the server sent it.
func (s *session) drill(class opClass, n *api.Node, column string) *api.Node {
	if s.skip(n) {
		return nil
	}
	h := s.h
	h.begin(opRecord{Class: class, Kind: "drill", Sess: s.ord, Node: n.ID, Rule: n.Rule, Column: column})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	resp, err := h.c.Drill(ctx, s.id, api.DrillRequest{Node: n.ID, Column: column})
	if !h.file(class, time.Since(t0), err) {
		s.dead = true
		return nil
	}
	if h.cfg.tamper != nil && h.recording {
		h.cfg.tamper(resp)
	}
	if err := h.chk.subtree(resp.Node); err != nil {
		h.fail(err.Error())
	}
	if h.inWindow && resp.Search != nil {
		// One unit per row scanned, posting or bitmap word read, and per
		// answer taken from the cache — so a hit costs 1 and is never 0.
		st := resp.Search
		h.winDrills++
		h.winWork += st.RowsScanned + st.PostingsRead + st.BitmapWordsRead + int64(st.CacheHits+st.SingleflightWaits)
	}
	if h.recording && resp.Search != nil {
		w := h.wire[class]
		if w == nil {
			w = &wireWork{}
			h.wire[class] = w
		}
		w.Ops++
		w.Passes += int64(resp.Search.Passes)
		w.RowsScanned += resp.Search.RowsScanned
		w.PostingsRead += resp.Search.PostingsRead
		w.BitmapWordsRead += resp.Search.BitmapWordsRead
		w.SampledRowsScanned += resp.Search.SampledRowsScanned
		w.CacheHits += int64(resp.Search.CacheHits)
		w.CacheMisses += int64(resp.Search.CacheMisses)
	}
	return resp.Node
}

// stream runs the anytime expansion of n and returns the streamed rules.
// Every rule is verified as it arrives and every refine event against the
// scan; the done event must agree with what was seen.
func (s *session) stream(n *api.Node, maxRules int) {
	if s.skip(n) {
		return
	}
	h := s.h
	h.begin(opRecord{Class: opStream, Kind: "stream", Sess: s.ord, Node: n.ID, Rule: n.Rule, MaxRules: maxRules})
	ctx, cancel := h.opCtx()
	defer cancel()
	var first time.Duration
	var rules, refines int
	var checkErr error
	t0 := time.Now()
	done, err := h.c.DrillStream(ctx, s.id, client.StreamOptions{
		Node:     n.ID,
		MaxRules: maxRules,
		OnRule: func(r *api.Node) bool {
			if rules == 0 {
				first = time.Since(t0)
			}
			rules++
			if err := h.chk.subtree(r); err != nil && checkErr == nil {
				checkErr = err
			}
			return true
		},
		OnRefine: func(r *api.Node) {
			refines++
			if err := h.chk.refined(r); err != nil && checkErr == nil {
				checkErr = err
			}
		},
	})
	d := time.Since(t0)
	if err == nil && done == nil {
		err = fmt.Errorf("stream ended without a summary")
	}
	if err == nil && done.Error != "" {
		err = fmt.Errorf("stream reported %s: %s", done.ErrorCode, done.Error)
	}
	if !h.file(opStream, d, err) {
		s.dead = true
		return
	}
	switch {
	case checkErr != nil:
		h.fail(checkErr.Error())
	case rules == 0:
		h.fail(fmt.Sprintf("stream of %s produced no rule", n.ID))
	case done.Rules != rules || done.Refined != refines:
		h.fail(fmt.Sprintf("stream summary says %d rules/%d refines, saw %d/%d", done.Rules, done.Refined, rules, refines))
	}
	if h.recording && rules > 0 {
		h.firstRule = append(h.firstRule, first)
	}
}

// tree fetches and verifies the whole tree. want, when set, names the
// in-process reference rendering the fetched one must equal.
func (s *session) tree(want string) *api.Tree {
	return s.fetchTree(opTree, want)
}

func (s *session) fetchTree(class opClass, want string) *api.Tree {
	if s.dead {
		return nil
	}
	h := s.h
	h.begin(opRecord{Class: class, Kind: "tree", Sess: s.ord})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	tree, err := h.c.Tree(ctx, s.id)
	if !h.file(class, time.Since(t0), err) {
		s.dead = true
		return nil
	}
	if err := h.chk.subtree(tree.Root); err != nil {
		h.fail(err.Error())
	} else if want != "" && h.twin != nil && tree.Rendered != h.twin[want] {
		h.fail(fmt.Sprintf("session %d: served tree differs from the uncached in-process tree %q:\n%s\nwant:\n%s", s.ord, want, tree.Rendered, h.twin[want]))
	}
	return tree
}

func (s *session) collapse(n *api.Node) {
	if s.skip(n) {
		return
	}
	h := s.h
	h.begin(opRecord{Class: opCollapse, Kind: "collapse", Sess: s.ord, Node: n.ID, Rule: n.Rule})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	resp, err := h.c.Collapse(ctx, s.id, api.DrillRequest{Node: n.ID})
	if !h.file(opCollapse, time.Since(t0), err) {
		s.dead = true
		return
	}
	if len(resp.Node.Children) != 0 {
		h.fail(fmt.Sprintf("collapse of %s left %d children", n.ID, len(resp.Node.Children)))
	}
}

func (s *session) traditional(n *api.Node, column string) {
	if s.skip(n) {
		return
	}
	h := s.h
	h.begin(opRecord{Class: opTraditional, Kind: "traditional", Sess: s.ord, Node: n.ID, Rule: n.Rule, Column: column})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	resp, err := h.c.Traditional(ctx, s.id, api.TraditionalRequest{Node: n.ID, Column: column})
	if !h.file(opTraditional, time.Since(t0), err) {
		s.dead = true
		return
	}
	// The groups partition the node's coverage: their counts must add up
	// to the node's scanned count.
	sum := 0.0
	for _, g := range resp.Groups {
		sum += g.Count
	}
	if want, err := h.chk.truth(n); err != nil {
		h.fail(err.Error())
	} else if sum != want {
		h.fail(fmt.Sprintf("traditional on %q under %s sums to %v, scan says %v", column, n.ID, sum, want))
	}
}

func (s *session) delete() {
	if s.id == "" {
		return
	}
	h := s.h
	h.begin(opRecord{Class: opDelete, Kind: "delete", Sess: s.ord})
	ctx, cancel := h.opCtx()
	defer cancel()
	t0 := time.Now()
	err := h.c.DeleteSession(ctx, s.id)
	h.file(opDelete, time.Since(t0), err)
	s.dead = true
}

// wildcards names the first limit columns n leaves starred.
func (s *session) wildcards(n *api.Node, limit int) []string {
	var out []string
	if n == nil {
		return nil
	}
	for i, cell := range n.Display {
		if cell == "?" && i < len(s.columns) && len(out) < limit {
			out = append(out, s.columns[i])
		}
	}
	return out
}

// firstWildcard names the first column n leaves starred ("" when none).
func (s *session) firstWildcard(n *api.Node) string {
	if cols := s.wildcards(n, 1); len(cols) == 1 {
		return cols[0]
	}
	return ""
}
