// Command smartdrilld serves interactive smart drill-down sessions over a
// JSON HTTP API — the network analogue of the paper's web prototype,
// designed for many concurrent analysts: distinct sessions drill in
// parallel, each expansion can fan out across BRS workers, and large tables
// are served from dynamically maintained in-memory samples.
//
// Usage:
//
//	smartdrilld [-addr :8080] [-dataset name=path.csv[:measure,...]]...
//	            [-demo] [-max-sessions 1024] [-workers N] [-k 3]
//	            [-stream-budget 5s] [-background-refine=true]
//	            [-cache-entries 256] [-cache-off] [-warm-children 2]
//	            [-snapshot-dir DIR] [-max-concurrent N] [-admission-wait 1s]
//	            [-request-timeout 30s] [-read-header-timeout 10s]
//	            [-idle-timeout 2m] [-version]
//
// Each -dataset flag registers one CSV file under a name; the optional
// colon-suffix lists measure (numeric) columns. -demo registers the
// paper's department-store running example as "store". With no -dataset
// flags, -demo is implied so the server is immediately explorable:
//
//	smartdrilld &
//	curl -s localhost:8080/v1/datasets
//	curl -s -X POST localhost:8080/v1/sessions -d '{"dataset":"store"}'
//
// Start-up parses each -dataset file and builds nothing else, so the
// server is ready at parse speed. A dataset's distinct-tuple table and its
// inverted index over the rows are each built by the first drill that
// needs them, and logged then in one line each; a dataset served only by
// Count sessions, which search its distinct tuples, never builds the index
// over its rows (docs/OPERATIONS.md, "Cold start and restart").
//
// With -snapshot-dir, sessions are durable: every mutation writes through
// to one JSON snapshot file per session, LRU eviction demotes sessions to
// disk instead of destroying them, and a restarted smartdrilld on the same
// directory resumes every session id. Overload behavior (concurrency cap,
// degraded mode, 429 shedding) is tuned by -max-concurrent and friends;
// see docs/OPERATIONS.md.
//
// Every dataset carries a shared answer cache: completed expansions are
// cached (bounded by -cache-entries, LRU beyond it) and repeated identical
// drills — across sessions or within one — are served without re-running
// the search, while concurrent identical searches collapse onto a single
// execution. -warm-children N precomputes the root expansion plus the top
// N level-1 children in the background right after each dataset registers,
// so the first analyst's default drills are cache hits. -cache-off
// disables all of it (the ablation switch).
//
// -workers N is the number of goroutines one expansion's counting passes
// fan out over, for sessions that do not ask for their own. The default 0
// means every CPU; -workers 1 is serial. No worker takes a share of
// another's sum, so answers are the same at any value, Sum sessions
// included.
//
// The server shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartdrill"
	"smartdrill/internal/datagen"
	"smartdrill/internal/server"
)

// datasetFlag collects repeated -dataset name=path[:measures] values.
type datasetFlag struct {
	specs []datasetSpec
}

type datasetSpec struct {
	name     string
	path     string
	measures []string
}

func (f *datasetFlag) String() string {
	parts := make([]string, len(f.specs))
	for i, s := range f.specs {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (f *datasetFlag) Set(raw string) error {
	name, rest, ok := strings.Cut(raw, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=path.csv[:measure,...], got %q", raw)
	}
	spec := datasetSpec{name: name}
	if path, ms, ok := strings.Cut(rest, ":"); ok {
		spec.path = path
		for _, m := range strings.Split(ms, ",") {
			if m = strings.TrimSpace(m); m != "" {
				spec.measures = append(spec.measures, m)
			}
		}
	} else {
		spec.path = rest
	}
	f.specs = append(f.specs, spec)
	return nil
}

func main() {
	log.SetFlags(0)
	var datasets datasetFlag
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		demo         = flag.Bool("demo", false, "register the paper's department-store example as dataset \"store\"")
		maxSessions  = flag.Int("max-sessions", 1024, "live session cap (LRU eviction beyond it)")
		workers      = flag.Int("workers", 0, "default BRS worker goroutines per expansion (0 = every CPU; 1 = serial)")
		k            = flag.Int("k", 3, "default rules per expansion")
		streamBudget = flag.Duration("stream-budget", 5*time.Second, "default anytime budget for /drill/stream")
		bgRefine     = flag.Bool("background-refine", true, "re-count provisional sampled drill results exactly in the background")
		cacheEntries = flag.Int("cache-entries", 0, "per-dataset answer-cache capacity in completed expansions (0 = default 256)")
		cacheOff     = flag.Bool("cache-off", false, "disable the per-dataset answer cache and singleflight entirely")
		warmChildren = flag.Int("warm-children", 2, "precompute the root expansion plus the top N level-1 children per dataset in the background (0 = no warming)")
		showVersion  = flag.Bool("version", false, "print the build version and exit")

		snapshotDir   = flag.String("snapshot-dir", "", "directory for durable session snapshots (empty = sessions are memory-only)")
		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent work-request cap before shedding with 429 (0 = serving default, negative = unlimited)")
		admissionWait = flag.Duration("admission-wait", 0, "max queueing time for a concurrency slot before shedding (0 = default 1s)")
		reqTimeout    = flag.Duration("request-timeout", 0, "per-request deadline for non-streaming work endpoints (0 = default 30s, negative = none)")
		readHdrTO     = flag.Duration("read-header-timeout", 0, "time limit for reading request headers (0 = default 10s)")
		idleTO        = flag.Duration("idle-timeout", 0, "keep-alive idle connection timeout (0 = default 2m)")
	)
	flag.Var(&datasets, "dataset", "register a CSV dataset as name=path.csv[:measure,...] (repeatable)")
	flag.Parse()

	if *showVersion {
		fmt.Println("smartdrilld", smartdrill.Version)
		return
	}

	logger := log.New(os.Stderr, "smartdrilld ", log.LstdFlags|log.Lmicroseconds)
	var backend server.SessionBackend
	if *snapshotDir != "" {
		b, err := server.NewDirBackend(*snapshotDir)
		if err != nil {
			log.Fatal(err)
		}
		backend = b
		logger.Printf("durable sessions: snapshot directory %s", b.Dir())
	}
	srv := server.New(server.Config{
		MaxSessions:       *maxSessions,
		Workers:           *workers,
		DefaultK:          *k,
		StreamBudget:      *streamBudget,
		BackgroundRefine:  *bgRefine,
		CacheEntries:      *cacheEntries,
		CacheOff:          *cacheOff,
		WarmChildren:      *warmChildren,
		Backend:           backend,
		MaxConcurrent:     *maxConcurrent,
		AdmissionWait:     *admissionWait,
		RequestTimeout:    *reqTimeout,
		ReadHeaderTimeout: *readHdrTO,
		IdleTimeout:       *idleTO,
		Logger:            logger,
	})

	if len(datasets.specs) == 0 {
		*demo = true
	}
	if *demo {
		srv.RegisterDataset("store", datagen.StoreSales(42))
		logger.Printf("registered demo dataset \"store\" (department-store running example, 6000 rows)")
	}
	for _, spec := range datasets.specs {
		start := time.Now()
		t, err := smartdrill.LoadCSV(spec.path, spec.measures)
		if err != nil {
			log.Fatalf("dataset %s: %v", spec.name, err)
		}
		parsed := time.Since(start)
		srv.RegisterDataset(spec.name, t)
		cells, _ := t.ResidentBytes()
		logger.Printf("registered dataset %q: %d rows × %d columns from %s (parsed %.2fs, cells %.1f MiB)",
			spec.name, t.NumRows(), t.NumCols(), spec.path, parsed.Seconds(), float64(cells)/(1<<20))
	}

	if backend != nil {
		if n, err := srv.RecoverSessions(); err != nil {
			log.Fatalf("session recovery: %v", err)
		} else if n > 0 {
			logger.Printf("resuming %d session(s) from %s", n, *snapshotDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
}
