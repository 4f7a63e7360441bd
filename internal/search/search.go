// Package search is the dataset-scoped seam every BRS invocation goes
// through: batch and star expansions and incremental (anytime) streams
// arrive here as a canonical Request and leave as a Response. A count or a
// listing is no search: a session reads those from the rule's exact view
// itself. Owning the single entry point lets the service add what no
// per-call-site code could share:
//
//   - a bounded LRU answer cache of completed exact expansions, keyed by
//     the canonicalized request (the rule's Key(), k, max rules, weighter
//     and aggregate names, mw and worker count), with hits served as
//     clones so sessions can never mutate shared results;
//   - singleflight collapsing of concurrent identical searches, so a
//     thundering herd on one popular expansion costs one BRS run — and a
//     canceled leader re-elects a waiter instead of poisoning the flight;
//   - background warming hooks (MarkWarmed), cache counters filed into the
//     response's brs.Stats (which sessions total and the wire carries
//     unchanged), and per-dataset Counters for /v1/health.
//
// Only complete, exact, unscaled results enter the cache: sampled
// expansions depend on per-session handler state, and a budget-truncated
// stream must never be replayed as a complete answer — both bypass the cache
// entirely. A degraded (overloaded) drill needs no flag of its own: on a
// sampled session the overload ladder makes it Sampled, and on an exact one
// a cached answer is the cheapest there is. A service built with
// Config.Disabled is the one switch that turns the cache off.
package search

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/guarded"
	"smartdrill/internal/lru"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/spans"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// Kind selects which BRS entry point a Request drives.
type Kind uint8

const (
	// KindBatch is a complete k-rule expansion (brs.Run): rule drill-down,
	// and star drill-down when the weighter is a StarConstraint (the star
	// column rides in the weighter's name, so it needs no field of its own).
	KindBatch Kind = iota + 1
	// KindStream is the anytime expansion (brs.RunIncremental): rules are
	// delivered through Yield as the greedy search finds them.
	KindStream
)

// Request is the canonical form of one search. Identity fields (Kind
// through MaxWeight) make up the cache key; the remaining fields route
// around the cache (Sampled, a Deadline-bounded stream), are consulted
// only on a miss (Resolve, MaxWeightFor, Yield), or are read by nothing
// (Store, Seed). Each carries a //sdlint:nonidentity comment saying why it
// stays out of the key, and TestKeyOfFieldIdentity holds the split for
// every field.
type Request struct {
	Kind Kind
	// Rule is the expansion target: the drilled rule.
	Rule rule.Rule
	// K is the rules-per-expansion for batch (and the mw probe size).
	K int
	// MaxRules bounds a stream (0 = unbounded); it shapes the result list,
	// so it is part of the key.
	MaxRules int
	// Weighter scores rules; its Name() canonicalizes it in the key.
	Weighter weight.Weighter
	// Agg is the aggregate; its Name() canonicalizes it in the key.
	Agg score.Aggregator
	// MaxWeight is the configured mw; <= 0 means each execution estimates
	// it via MaxWeightFor (the estimate is deterministic in keyed fields, so
	// the configured value — not the estimate — belongs in the key).
	MaxWeight float64
	// Workers shapes the execution.
	//
	//sdlint:nonidentity every search answers, and reads, the same at any worker count
	Workers int

	// Deadline bounds a stream. A deadline-bounded stream can truncate
	// anywhere, so it bypasses the cache and singleflight entirely rather
	// than ever being replayed as a complete expansion.
	//
	//sdlint:nonidentity deadline-bounded streams never enter the cache (Run routes them around it)
	Deadline time.Time
	// Yield receives stream results one at a time (nil outside streams).
	// It always runs on the requesting goroutine — on a miss live from the
	// search, on a hit replayed from the cached result list — so callers
	// may touch caller-locked state inside it.
	//
	//sdlint:nonidentity delivery callback: hits replay the cached list through it, so it cannot change the answer
	Yield func(brs.Result) bool

	// Sampled marks a request whose view would be served by the session's
	// stateful sample handler: the answer depends on per-session sample
	// history, so it is never shared through the cache.
	//
	//sdlint:nonidentity cache-routing flag: sampled requests bypass the cache entirely
	Sampled bool

	// Store is read by nothing: a search reads the view Resolve delivers.
	// It stays only so that callers built against it still compile.
	//
	//sdlint:nonidentity read by nothing; a search reads only the view Resolve delivers
	Store *storage.Store
	// Resolve lazily produces the batch/stream view: the rule's covered
	// tuples, the estimate scale, and whether counts are exact. It runs
	// only on a miss — a cache hit skips the filter work entirely — and
	// always on the requesting goroutine.
	//
	//sdlint:nonidentity view resolution is a pure function of the keyed Rule against the dataset
	Resolve func() (v *table.View, scale float64, exact bool, err error)
	// MaxWeightFor estimates mw from the resolved view when MaxWeight is
	// unset: the probe's draw is seeded from the searched rule's coverage and
	// the K/MaxRules it searches for, never from a session's seed.
	//
	//sdlint:nonidentity mw estimation is deterministic in keyed fields
	MaxWeightFor func(v *table.View) float64

	// Seed is read by nothing: the answer of a request does not depend on
	// its session's seed (see MaxWeightFor). It stays only so that callers
	// built against it still compile.
	//
	//sdlint:nonidentity read by nothing; no answer depends on a session's seed
	Seed int64
}

// Response is the outcome of one search. Only exact, unscaled results
// enter the cache, and a cached response's Stats carry only the cache
// counters: the stored expansion's search work was already accounted by
// the request that ran it.
type Response struct {
	Results []brs.Result
	Stats   brs.Stats
	// Cached reports the response was served without executing BRS — an
	// LRU hit, or a singleflight waiter adopting the leader's run.
	Cached bool
}

// Config tunes a Service.
type Config struct {
	// Entries bounds the answer cache (LRU beyond it). 0 means the default
	// of 256 completed expansions.
	Entries int
	// Disabled turns the cache and singleflight off: every request
	// executes directly, as if the service were a plain function call.
	Disabled bool
}

// DefaultEntries is the answer-cache bound when Config.Entries is 0.
const DefaultEntries = 256

// key is the canonicalized request identity. It is a comparable struct, so
// cache and flight lookups are single map operations.
type key struct {
	kind     Kind
	rule     string // Rule.Key()
	k        int
	maxRules int
	weighter string
	agg      string
	maxW     float64
}

// entry is one cached completed search: an immutable master copy whose
// rules are cloned again on every hit.
type entry struct {
	results []brs.Result
}

// flight is one in-progress execution that identical requests wait on.
// done is closed after err (and, on success, the published cache entry)
// are written, so waiters read both race-free.
type flight struct {
	done  chan struct{}
	entry *entry // nil when the run failed or produced an uncacheable result
	err   error
}

// Service owns every BRS invocation against one dataset. The zero value
// is not usable; construct with NewService. All methods are safe for
// concurrent use.
type Service struct {
	cfg   Config
	state guarded.Value[cacheState]

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64
	warmed atomic.Int64
}

// cacheState is everything the service's lock protects: the answer cache,
// each answer costing 1 within Config.Entries, and the table of in-flight
// executions.
type cacheState struct {
	answers lru.List[key, *entry]
	flights map[key]*flight
}

// NewService builds a search service for one dataset.
func NewService(cfg Config) *Service {
	if cfg.Entries <= 0 {
		cfg.Entries = DefaultEntries
	}
	return &Service{
		cfg: cfg,
		state: guarded.New(cacheState{
			answers: lru.New[key](cfg.Entries, func(*entry) int { return 1 }),
			flights: make(map[key]*flight),
		}),
	}
}

// Counters is a point-in-time snapshot of the service's cache activity,
// surfaced per dataset in /v1/health.
type Counters struct {
	Entries           int
	Hits              int64
	Misses            int64
	SingleflightWaits int64
	Warmed            int64
}

// Counters returns a snapshot of the cache counters.
func (s *Service) Counters() Counters {
	var entries int
	s.state.Do(func(st *cacheState) { entries = st.answers.Len() })
	return Counters{
		Entries:           entries,
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		SingleflightWaits: s.waits.Load(),
		Warmed:            s.warmed.Load(),
	}
}

// MarkWarmed records one completed warm precomputation (the serving
// layer's RegisterDataset warmers call it per expansion they land).
func (s *Service) MarkWarmed() { s.warmed.Add(1) }

// keyOf canonicalizes a request.
func (*Service) keyOf(req Request) key {
	k := key{
		kind:     req.Kind,
		rule:     req.Rule.Key(),
		k:        req.K,
		maxRules: req.MaxRules,
		maxW:     req.MaxWeight,
	}
	if req.Weighter != nil {
		k.weighter = req.Weighter.Name()
	}
	if req.Agg != nil {
		k.agg = req.Agg.Name()
	}
	return k
}

// Run executes (or serves) one search. Requests that can never be shared
// — on a disabled service, sampled, or deadline-bounded streams —
// execute directly with bit-identical behavior to the pre-service call
// sites. Everything else consults the answer cache, joins an identical
// in-flight execution, or runs as the flight leader and publishes its
// completed result.
func (s *Service) Run(ctx context.Context, req Request) (Response, error) {
	if s.cfg.Disabled || req.Sampled ||
		(req.Kind == KindStream && !req.Deadline.IsZero()) {
		resp, _, err := s.execute(ctx, req, false)
		return resp, err
	}
	k := s.keyOf(req)
	for {
		// One critical section decides this request's role: served from
		// the cache (e), waiting on another request's execution (f), or
		// leading a new one (f, leader).
		var (
			e      *entry
			f      *flight
			leader bool
		)
		s.state.Do(func(st *cacheState) {
			if e, _ = st.answers.Get(k); e != nil {
				return
			}
			if f = st.flights[k]; f == nil {
				f = &flight{done: make(chan struct{})}
				st.flights[k] = f
				leader = true
			}
		})
		if e != nil {
			s.hits.Add(1)
			return replay(e, req, brs.Stats{CacheHits: 1}), nil
		}
		if !leader {
			select {
			case <-ctx.Done():
				return Response{}, ctx.Err()
			case <-f.done:
			}
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					// The leader's own context died, which says nothing
					// about this request: loop and re-elect a leader.
					continue
				}
				// A genuine search failure would hit every waiter alike.
				return Response{}, f.err
			}
			if f.entry == nil {
				// The leader's result was uncacheable (a stream stopped
				// early by its consumer) or it panicked; run it ourselves.
				continue
			}
			s.waits.Add(1)
			return replay(f.entry, req, brs.Stats{SingleflightWaits: 1}), nil
		}
		return s.lead(ctx, req, k, f)
	}
}

// lead executes req as the leader of flight f, publishes a cacheable
// result, and retires f for its waiters. The retirement is deferred: a
// search that panics still retires its flight — with no entry and no error,
// so its waiters re-elect a leader instead of waiting on it until their
// deadlines — and the panic goes on to the leader's caller.
func (s *Service) lead(ctx context.Context, req Request, k key, f *flight) (resp Response, err error) {
	var e *entry
	defer func() {
		s.state.Do(func(st *cacheState) {
			delete(st.flights, k)
			if err == nil && e != nil {
				st.answers.Put(k, e)
			}
		})
		f.entry, f.err = e, err
		close(f.done)
	}()
	resp, e, err = s.execute(ctx, req, true)
	if err == nil {
		s.misses.Add(1)
		resp.Stats.CacheMisses = 1
	}
	return resp, err
}

// execute runs the search for real. cacheable asks it to also build the
// publishable entry — a deep clone, so the caller's (mutable) response
// and the shared cache never alias — when the result is complete, exact,
// and unscaled. Partial statistics ride back even on error: an aborted
// search did real work the session's accounting must see.
func (s *Service) execute(ctx context.Context, req Request, cacheable bool) (Response, *entry, error) {
	if req.Kind != KindBatch && req.Kind != KindStream {
		return Response{}, nil, errors.New("search: unknown request kind")
	}
	start := time.Now()
	view, scale, exact, err := req.Resolve()
	if err != nil {
		return Response{}, nil, err
	}
	spans.Since(ctx, spans.Resolve, start)
	mw := req.MaxWeight
	if mw <= 0 {
		mw = req.MaxWeightFor(view)
	}
	start = time.Now()
	opts := brs.Options{
		K:           req.K,
		MaxWeight:   mw,
		Base:        req.Rule,
		BaseCovered: true, // Resolve delivers exactly the rule's coverage
		Agg:         req.Agg,
		Workers:     req.Workers,
		SampleScale: scale,
	}
	var (
		results []brs.Result
		stats   brs.Stats
		stopped bool
	)
	if req.Kind == KindBatch {
		results, stats, err = brs.RunCtx(ctx, view, req.Weighter, opts)
	} else {
		opts.MinGainRatio = 0.01 // drop the long tail of near-worthless rules
		stats, err = brs.RunIncrementalCtx(ctx, view, req.Weighter, opts, req.MaxRules, req.Deadline, func(r brs.Result) bool {
			results = append(results, r)
			stopped = req.Yield != nil && !req.Yield(r)
			return !stopped
		})
	}
	spans.Since(ctx, spans.BRS, start)
	resp := Response{Results: results, Stats: stats}
	if err != nil {
		return resp, nil, err
	}
	var e *entry
	// A consumer-stopped stream is truncated: the search would have
	// gone on. It must never be replayed as the complete expansion.
	if cacheable && !stopped && exact && scale == 1 {
		e = &entry{results: cloneResults(results)}
	}
	return resp, e, nil
}

// replay serves a cached entry: every rule slice is cloned so no two
// consumers (or the cache itself) ever share backing arrays, and stream
// consumers see their Yield called per rule exactly as on a live search.
func replay(e *entry, req Request, stats brs.Stats) Response {
	resp := Response{Results: cloneResults(e.results), Stats: stats, Cached: true}
	if req.Kind == KindStream && req.Yield != nil {
		for i := range resp.Results {
			if !req.Yield(resp.Results[i]) {
				resp.Results = resp.Results[:i+1]
				break
			}
		}
	}
	return resp
}

func cloneResults(rs []brs.Result) []brs.Result {
	if rs == nil {
		return nil
	}
	out := make([]brs.Result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Rule = append(rule.Rule(nil), r.Rule...)
	}
	return out
}
