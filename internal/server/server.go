// Package server exposes smart drill-down sessions over the versioned v1
// JSON HTTP API — the serving layer behind cmd/smartdrilld. It manages a
// registry of named datasets and an LRU-evicting session store,
// and implements the paper's interactive operations (drill-down, star
// drill-down, roll-up, anytime streaming, provisional→exact refinement)
// as endpoints under /v1, speaking the api package's DTOs — stable string
// node IDs on the wire, a uniform {error:{code,message}} envelope, and
// request contexts threaded into the BRS search so abandoned requests
// stop paying for table passes:
//
//	GET    /v1/health                        health, version, dataset sizes
//	GET    /v1/datasets                      list registered datasets
//	POST   /v1/sessions                      create a session on a dataset
//	GET    /v1/sessions/{id}/tree            the displayed rule tree as JSON
//	POST   /v1/sessions/{id}/drill           expand a node (rule or star drill)
//	POST   /v1/sessions/{id}/collapse        roll up a node
//	POST   /v1/sessions/{id}/refine          exact-count one provisional node
//	POST   /v1/sessions/{id}/traditional     classic OLAP drill-down listing
//	GET    /v1/sessions/{id}/drill/stream    anytime expansion over SSE
//	DELETE /v1/sessions/{id}                 discard a session
//
// See docs/API.md and docs/openapi.yaml for the full contract, and the
// client package for the Go SDK.
//
// Concurrency model: datasets are immutable once registered and shared by
// every session reading them, including one inverted index per dataset
// (built at registration) that answers every session's rule filters by
// posting-list intersection instead of per-request scans. Each session
// owns a private Engine reachable only through the session's door
// (session.do), which holds the per-session lock, so operations on one
// session serialize while distinct sessions run fully in parallel (each
// expansion can additionally fan out across BRS workers). The session
// registry's own lock covers one map lookup and one list move.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/internal/guarded"
	"smartdrill/internal/spans"
	"smartdrill/internal/table"
)

// Config tunes a Server. Zero values get serving defaults.
type Config struct {
	// MaxSessions caps live sessions; the least recently used session is
	// evicted when a create would exceed it. Default 1024.
	MaxSessions int
	// DefaultK is the rules-per-expansion when a create request does not
	// specify k. Default 3 (the paper's UI default).
	DefaultK int
	// Workers is the per-expansion BRS parallelism applied to every
	// session that does not request its own. 0 means every CPU, 1 serial;
	// answers are the same at any value (see brs.Options.Workers).
	Workers int
	// StreamBudget is the default anytime budget for /drill/stream when
	// the request does not set budget_ms. Default 5s — the paper's
	// suggested interactive limit ("within a time limit (of say 5
	// seconds)").
	StreamBudget time.Duration
	// Backend, when set, makes sessions durable: every mutation writes a
	// snapshot through to it, LRU eviction demotes sessions to it instead
	// of destroying them, store misses rehydrate from it, and a restarted
	// server resumes every persisted session id. Nil (the default) keeps
	// the historical in-memory-only behavior. See DirBackend.
	Backend SessionBackend
	// MaxConcurrent caps concurrently executing work requests (session
	// create, drill, collapse, refine, traditional, stream) across all
	// sessions. Requests beyond the cap queue up to AdmissionWait, run
	// degraded when slots are scarce (degradeFraction), and are shed with
	// 429 overloaded + Retry-After when every slot stays busy. Default
	// max(64, 4×GOMAXPROCS); negative disables admission control entirely.
	MaxConcurrent int
	// AdmissionWait bounds how long a work request may queue for an
	// admission slot before being shed. Default 1s.
	AdmissionWait time.Duration
	// RequestTimeout is the default per-request deadline applied to
	// non-streaming work endpoints, threaded into the engine's context so
	// an over-deadline search stops at the next counting-pass boundary.
	// Default 30s; negative disables. Streaming endpoints are exempt —
	// their anytime budget already bounds them.
	RequestTimeout time.Duration
	// ReadHeaderTimeout and IdleTimeout configure ListenAndServe's
	// http.Server (slowloris protection and keep-alive reaping). Defaults
	// 10s and 120s. There is deliberately no WriteTimeout: SSE streams
	// hold response writers open for their whole budget.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// CacheEntries bounds each dataset's shared answer cache of completed
	// expansions (LRU beyond it). 0 means the service default (256).
	CacheEntries int
	// CacheOff disables the dataset answer cache and singleflight
	// entirely: every request executes its own search, as before PR 9.
	CacheOff bool
	// WarmChildren enables background warming on RegisterDataset: the root
	// expansion plus the top-N level-1 children are precomputed with the
	// server's default session parameters into the dataset's answer cache,
	// so the first analyst's default drills cost cached latency. 0 (the
	// default) disables warming — tests and embedders get untouched
	// caches; cmd/smartdrilld turns it on. Warmers are drained on shutdown
	// like the background refiners.
	WarmChildren int
	// BackgroundRefine re-counts provisional (sample-estimated) drill
	// results exactly in a background goroutine after each /drill response,
	// so a later /tree fetch shows authoritative counts without the analyst
	// paying for the passes. The SSE stream endpoint refines inline (refine
	// events) regardless of this setting. Off by default so tests and
	// embedders get deterministic trees; cmd/smartdrilld enables it.
	BackgroundRefine bool
	// Logger receives request logs; nil logs to stderr.
	Logger *log.Logger
}

const (
	// shutdownGrace bounds how long Shutdown waits for in-flight requests —
	// and, once they drain, for in-flight background refiners.
	shutdownGrace = 10 * time.Second
	// degradeFraction is the in-use fraction of MaxConcurrent at or above
	// which admitted requests run degraded (sampled sessions answer from the
	// provisional pipeline; background refinement and prefetch are skipped).
	degradeFraction = 0.75
)

// maxStreamBudget bounds the budget a stream may ask for. Not an option; a
// var only so that tests can lower it.
var maxStreamBudget = 30 * time.Second

func (c *Config) fill() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 3
	}
	if c.StreamBudget <= 0 {
		c.StreamBudget = 5 * time.Second
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 64 {
			c.MaxConcurrent = 64
		}
	}
	if c.AdmissionWait <= 0 {
		c.AdmissionWait = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 120 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "smartdrilld ", log.LstdFlags|log.Lmicroseconds)
	}
}

// dataset is an immutable registered table plus its load-time metadata
// and the search service every session on it shares (one answer cache
// and singleflight domain per dataset).
type dataset struct {
	table    *smartdrill.Table
	measures []string
	svc      *smartdrill.SearchService
}

// Server is the smart drill-down HTTP service. Construct with New, register
// datasets, then serve Handler (or use ListenAndServe for a managed
// listener with graceful shutdown).
type Server struct {
	cfg     Config
	store   *sessionStore
	backend SessionBackend // durable session layer; nil = memory only
	adm     *admission     // work-endpoint concurrency limiter; nil = unlimited

	datasets guarded.Value[map[string]dataset]

	// rehydrateMu serializes backend rehydrations so two concurrent store
	// misses on one session id build one engine, not two.
	rehydrateMu sync.Mutex
	// persistFailures counts failed snapshot write-throughs (durability
	// degraded, availability intact).
	persistFailures atomic.Uint64

	// refiners tracks in-flight background refinement goroutines so tests
	// and embedders can await quiescence (WaitRefiners) and graceful
	// shutdown can drain them.
	refiners taskGroup
	// warmers tracks in-flight dataset warming goroutines (WarmChildren),
	// drained on shutdown like the refiners; warmCancel aborts their
	// searches at the next counting-pass boundary.
	warmers    taskGroup
	warmCtx    context.Context
	warmCancel context.CancelFunc

	handler http.Handler
}

// New builds a Server with no datasets registered.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		store:    newSessionStore(cfg.MaxSessions),
		backend:  cfg.Backend,
		datasets: guarded.New(make(map[string]dataset)),
	}
	s.warmCtx, s.warmCancel = context.WithCancel(context.Background())
	if cfg.MaxConcurrent > 0 {
		s.adm = newAdmission(cfg.MaxConcurrent, cfg.AdmissionWait, degradeFraction)
	}
	s.handler = s.routes()
	return s
}

// RegisterDataset makes t available to sessions under the given name,
// replacing any previous registration. The table must not be mutated after
// registration: sessions read it concurrently without locks.
//
// Registration creates the dataset's search service — the answer cache
// and singleflight domain shared by every session's engine — and, when
// Config.WarmChildren is set, spawns a background warmer that precomputes
// the root expansion plus the top-N level-1 children with the server's
// default session parameters, so the first analyst's default drills are
// cache hits.
//
// What registration does not build is either of the table's lazy
// structures, so start-up stays at parse speed. The distinct-tuple table,
// which exact Count drills search in place of the rows and sampled ones
// draw their samples from, is built by the first such drill. The inverted
// index over the rows is built by the first search that reads rows — a Sum
// session, a non-integral weighter, or any drill on a table that does not
// compress — and never on a dataset served only by Count sessions over its
// distinct tuples. Every session on the dataset shares whichever gets
// built, and one log line says how each build resolved — the pair masses
// (table.Index.Pairs) too, which the first Count search builds on the
// table it searches where that keeps them, the distinct tuples or the rows.
func (s *Server) RegisterDataset(name string, t *smartdrill.Table) {
	t.OnBuild(func(r table.BuildReport) {
		switch {
		case r.Pairs > 0:
			s.cfg.Logger.Printf("dataset %s: pair masses of %d rows, %d column pairs (%.1f KiB) in %s",
				name, r.Rows, r.Pairs, float64(r.Bytes)/(1<<10), r.Elapsed.Round(time.Microsecond))
		case r.Index:
			s.cfg.Logger.Printf("dataset %s: indexed %d rows (%.1f MiB) in %s",
				name, r.Rows, float64(r.Bytes)/(1<<20), r.Elapsed.Round(time.Microsecond))
		case r.Distinct == 0:
			s.cfg.Logger.Printf("dataset %s: %d rows not compressible, gave up after %d rows in %s",
				name, r.Rows, r.Read, r.Elapsed.Round(time.Microsecond))
		default:
			s.cfg.Logger.Printf("dataset %s: %d rows → %d distinct tuples (%.1f×) in %s",
				name, r.Rows, r.Distinct, float64(r.Rows)/float64(r.Distinct), r.Elapsed.Round(time.Microsecond))
		}
	})
	d := dataset{
		table:    t,
		measures: t.MeasureNames(),
		svc: smartdrill.NewSearchService(smartdrill.SearchServiceConfig{
			Entries:  s.cfg.CacheEntries,
			Disabled: s.cfg.CacheOff,
		}),
	}
	s.datasets.Do(func(m *map[string]dataset) { (*m)[name] = d })
	if s.cfg.WarmChildren > 0 && !s.cfg.CacheOff {
		s.warmers.Go(func() { s.warmDataset(name, d) })
	}
}

// warmDataset precomputes the root expansion and the top WarmChildren
// level-1 children into the dataset's answer cache, using a throwaway
// engine built from an empty create request so the cache keys match the
// ones default sessions will ask for. Warming is best-effort: failures
// (including shutdown cancellation) are logged and abandoned, never
// surfaced — the cache just stays cold. The engine never backs a session,
// so nothing here is persisted. Each expansion gets a span record of its
// own, and the log line renders it.
func (s *Server) warmDataset(name string, d dataset) {
	eng, err := s.buildEngine(d, api.CreateSessionRequest{Dataset: name})
	if err != nil {
		s.cfg.Logger.Printf("dataset %s: warming skipped: %v", name, err)
		return
	}
	all := spans.Start()
	var timings []string
	warm := func(what string, n *smartdrill.Node) bool {
		rec := spans.Start()
		if err := eng.DrillDownCtx(spans.With(s.warmCtx, &rec), n); err != nil {
			s.cfg.Logger.Printf("dataset %s: warming %s failed: %v", name, what, err)
			return false
		}
		d.svc.MarkWarmed()
		timings = append(timings, what+" ("+rec.String()+")")
		return true
	}
	if !warm("root", eng.Root()) {
		return
	}
	children := eng.Root().Children
	for i := 0; i < len(children) && i < s.cfg.WarmChildren && s.warmCtx.Err() == nil; i++ {
		warm(fmt.Sprintf("child %d", i), children[i])
	}
	s.cfg.Logger.Printf("dataset %s: warmed %d expansions in %s: %s", name, len(timings), all.Total().Round(time.Millisecond), strings.Join(timings, ", "))
}

// dataset looks up a registered dataset.
func (s *Server) dataset(name string) (d dataset, ok bool) {
	s.datasets.Do(func(m *map[string]dataset) { d, ok = (*m)[name] })
	return d, ok
}

// datasetNames returns registered names in sorted order.
func (s *Server) datasetNames() []string {
	var names []string
	s.datasets.Do(func(m *map[string]dataset) {
		names = make([]string, 0, len(*m))
		for n := range *m {
			names = append(names, n)
		}
	})
	sort.Strings(names)
	return names
}

// Handler returns the server's root handler (all routes plus request-id,
// logging and panic-recovery middleware), for mounting under httptest or a
// custom http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// SessionCount reports the number of live sessions.
func (s *Server) SessionCount() int { return s.store.len() }

// WaitRefiners blocks until every in-flight background refinement
// goroutine has finished — for tests and embedders that need the
// provisional→exact lifecycle settled before inspecting session trees.
func (s *Server) WaitRefiners() { s.refiners.Wait() }

// WaitWarmers blocks until every in-flight dataset warming goroutine has
// finished — for tests and embedders that need warm caches (or quiescent
// counters) before measuring.
func (s *Server) WaitWarmers() { s.warmers.Wait() }

// refineInBackground is the background refiner: it re-counts each
// provisional node exactly (one accounted pass per node), one visit through
// the session's door per node, so live drill requests on the same session
// interleave with refinement instead of queueing behind all the passes —
// and each refined count is written through as it lands.
func (s *Server) refineInBackground(sess *session, nodes []*smartdrill.Node) {
	s.refiners.Go(func() {
		for _, n := range nodes {
			sess.do(context.Background(), func(e *smartdrill.Engine) { e.RefineNode(n) })
		}
	})
}

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	// Work endpoints run engine passes and go through admission control
	// (concurrency cap → degraded mode → shed with 429) plus the default
	// per-request deadline; cheap read/delete endpoints bypass both so
	// probes and dashboards stay responsive while the server sheds work.
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("POST /v1/sessions", s.withAdmission(false, s.handleCreateSession))
	mux.HandleFunc("GET /v1/sessions/{id}/tree", s.handleTree)
	mux.HandleFunc("POST /v1/sessions/{id}/drill", s.withAdmission(false, s.handleDrill))
	mux.HandleFunc("POST /v1/sessions/{id}/collapse", s.withAdmission(false, s.handleCollapse))
	mux.HandleFunc("POST /v1/sessions/{id}/refine", s.withAdmission(false, s.handleRefine))
	mux.HandleFunc("POST /v1/sessions/{id}/traditional", s.withAdmission(false, s.handleTraditional))
	mux.HandleFunc("GET /v1/sessions/{id}/drill/stream", s.withAdmission(true, s.handleDrillStream))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	return withRequestID(s.withRecovery(s.withLogging(mux)))
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests (SSE
// streams included) get shutdownGrace to finish, in-flight background
// refiners get whatever grace remains after the requests drain, and
// stragglers are cut.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		// No WriteTimeout: SSE streams hold their response writers open
		// for the whole anytime budget; work endpoints are bounded by the
		// admission middleware's per-request deadline instead.
	}
	s.logLimits(addr)
	errc := make(chan error, 1)
	// The select below consumes errc and Shutdown/Close unblocks Serve, so
	// the listener goroutine ends with this call.
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.cfg.Logger.Printf("shutting down (grace %s)", shutdownGrace)
		// Cancel in-flight dataset warmers first: warming is best-effort
		// precomputation, not work worth spending shutdown grace on. Their
		// searches abort at the next counting-pass boundary.
		s.warmCancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
			return err
		}
		// Requests have drained; spend the remaining grace draining the
		// background refiners so their exact counts (and write-through
		// snapshots) land instead of being abandoned mid-count — and the
		// cancelled warmers, which exit at their next pass boundary.
		if !s.refiners.WaitCtx(shutCtx) {
			s.cfg.Logger.Printf("shutdown grace expired with background refiners still in flight; abandoning them")
		}
		if !s.warmers.WaitCtx(shutCtx) {
			s.cfg.Logger.Printf("shutdown grace expired with dataset warmers still in flight; abandoning them")
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// logLimits records the effective serving limits once at startup, so an
// operator can read a deployment's overload posture off the log head.
func (s *Server) logLimits(addr string) {
	maxConc := "unlimited"
	if s.adm != nil {
		maxConc = strconv.Itoa(cap(s.adm.slots))
	}
	durable := "none (sessions are memory-only; eviction and restart lose them)"
	if s.backend != nil {
		durable = "enabled (write-through snapshots; eviction demotes to backend)"
	}
	s.cfg.Logger.Printf("serving limits on %s: max-concurrent=%s admission-wait=%s degrade-fraction=%.2f request-timeout=%s read-header-timeout=%s idle-timeout=%s (no write timeout: SSE) shutdown-grace=%s max-sessions=%d durability=%s",
		addr, maxConc, s.cfg.AdmissionWait, degradeFraction, s.cfg.RequestTimeout,
		s.cfg.ReadHeaderTimeout, s.cfg.IdleTimeout, shutdownGrace, s.cfg.MaxSessions, durable)
}
