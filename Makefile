# Development entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go
SDLINT := tools/sdlint/bin/sdlint

.PHONY: check test lint lint-fast sdlint race race-equivalence bench-vet drillload drillload-check smoke large chaos

# check is the default pre-commit gate: the sdlint invariants suite, a
# compile of the nested bench module, and the full test run.
check: lint bench-vet test

test:
	$(GO) build ./... && $(GO) test ./...

# sdlint builds the repo's analysis suite (tools/sdlint, a nested module
# so the main module stays dependency-free).
sdlint:
	cd tools/sdlint && $(GO) build -o bin/sdlint .

# lint-fast is the pre-commit inner loop: build the vettool and run the
# three sdlint analyzers (ctxflow, detwalk, apicodes) over every package —
# nothing else. The pass is timed
# and fails above a 120s budget: the analyzers guard every developer's
# edit-lint cycle, so their own cost is an invariant too (CI enforces the
# same bound; the recorded seconds in its log are the trend line).
lint-fast: sdlint
	@start=$$(date +%s); \
	$(GO) vet -vettool=$(CURDIR)/$(SDLINT) ./... || exit 1; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint-fast: sdlint vet pass took $${elapsed}s (budget 120s)"; \
	if [ $$elapsed -gt 120 ]; then \
		echo "lint-fast: vet pass blew the 120s budget; profile the analyzers before they poison the pre-commit loop" >&2; \
		exit 1; \
	fi

# lint machine-checks the engine's invariants (see docs/INVARIANTS.md):
# lint-fast's analyzer pass, then go vet over the suite's own nested module
# (the root `go vet ./...` never reaches it, and `go test` runs only vet's
# test subset), then the suite's golden tests.
# staticcheck joins when installed (CI installs a pinned version; locally
# it is optional so the target works in hermetic environments).
lint: lint-fast
	cd tools/sdlint && $(GO) vet ./...
	cd tools/sdlint && $(GO) test ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# race runs the concurrent packages under the race detector, then repeats
# the CSV ingest's block-independence check on the bundled table — what its
# workers and its in-order merge share is exercised by every block — with
# Warm and the first reads that build the whole index racing on a table the
# ingest loaded across both cell-width crossings (its first column was widened in place twice), and two sessions
# racing to build a table's memoised distinct-tuple table with their first
# drill — exact ones, whose answers are held to brsref on the rows, and
# sampled ones resolving it through their first GetSample — and a refine and
# a listing racing a drill to build it, the pass booked once; and a drill,
# the background refiner it starts and a stream racing on one durable
# session, each request filling its own span record and the refiner none:
# ten schedules find what one does not.
race:
	$(GO) test -race ./client/ ./internal/server/ ./internal/drill/ ./internal/table/ ./internal/brs/ ./internal/search/ ./internal/spans/
	$(GO) test -race -count=10 -run 'TestIngestBlockIndependence/storesales|TestIndexConcurrentBuild' ./internal/table/
	$(GO) test -race -count=10 -run 'TestEquivalence(Sampled)?DistinctBuildBookedOnce' ./internal/drill/
	$(GO) test -race -count=10 -run 'TestSpansRaceDrillRefinerStream' ./internal/server/

# chaos runs the fault-injection end-to-end suite (crash/restart resume,
# 429-storm convergence, dropped connections, flaky-disk snapshots) under
# the race detector across a seed matrix. The fault schedule is
# deterministic per seed; a failing run prints its FAULT_SEED — replay it
# with `make chaos SEEDS=<seed>`.
SEEDS ?= 1 2 3
chaos:
	@for seed in $(SEEDS); do \
		echo "chaos: FAULT_SEED=$$seed"; \
		FAULT_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestChaos|TestRestartResumes|TestEvictionRehydrates|TestProvisionalRoundTrip|TestPersistFailure' \
			./client/ ./internal/server/ || exit 1; \
		FAULT_SEED=$$seed $(GO) test -race -count=1 ./internal/faultinject/ || exit 1; \
	done

# drillload runs the repo's benchmark (bench/README.md): all four
# workloads of BENCHMARK.json against a real smartdrilld built from this
# checkout. Compare two result files with `bash bench/run.sh -compare`.
drillload:
	bash bench/run.sh -out bench/out/results.json

# drillload-check is the CI guard that needs no quiet machine: one
# count-based session a line, whose correctness verdict, operation count
# and search work are functions of the code alone and must equal the
# committed expectation exactly (timed readings spread 8–37 % on shared
# boxes, see bench/NOISE.md; counts do not move). Wire bytes per operation
# must be within 0.25 of it: a stream's done event prints elapsed_ms, whose
# digit count follows the clock. That slack is interim, until a benchmark
# PR leaves timing digits out of the counted bytes. A change that alters
# work or response bytes edits the expectation in its diff.
#
# The first line guards the exact path (cold-exact: cache off on
# census-100k, every drill searching the table's distinct tuples,
# docs/drillload-expect.json); the second the sampled one (sampled-1m:
# census-1m answered from per-session samples drawn from the table's distinct
# tuples, each born as the weighted table of its own,
# docs/drillload-expect-sampled.json) — the work of a sampled drill repeats as
# exactly as an exact one's, and a change that brings back a grouping pass
# over a sample's rows, reads a master-table row to draw or serve a sample,
# books the tuples copied into a sample's table twice or not at all, or widens
# a confidence interval's digits fails here.
drillload-check:
	bash bench/run.sh --workload cold-exact --seed 1 -sessions 1 --trace 0 \
		| python3 tools/drillload_check.py docs/drillload-expect.json
	bash bench/run.sh --workload sampled-1m --seed 1 -sessions 1 --trace 0 \
		| python3 tools/drillload_check.py docs/drillload-expect-sampled.json

# bench-vet compiles the nested bench module (drillload and its tests)
# against this tree's smartdrill/internal/... packages. Tier-1 never
# builds bench/, so this is what catches an internal rename breaking the
# repo's benchmark (≈1 s warm).
bench-vet:
	cd bench && $(GO) vet ./...

# race-equivalence runs the kernel-equivalence and parallel-determinism
# property layer under the race detector: fast path vs the brsref oracle
# × worker counts on every arm-forcing view shape bit-identical — bitset AND,
# the probing walk driven by a posting list and by a dense value's bitset
# (Sum, and the copy of a sub-view under Count), scan — index containers
# and accumulator merges raced; the residual bound held between every
# super-rule's brute-force marginal and the paper's bound
# (TestEquivalenceResidualBound); and one level up, every drill.Session
# access path (TestEquivalenceDrillPaths) vs brsref on the rows it stands
# for.
race-equivalence:
	$(GO) test -race -run 'Equivalence|Parallel' ./internal/...

smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# large runs the gated million-row acceptance check: provisional answers
# within the interactive budget and at least five times sooner than exact
# BRS on the same box, refined to exact counts on the same session; then
# the table's CSV through the ingest pipeline and back, cell for cell. Then
# the wide-table probe check: a root drill on census 200 000 × 14 reads less
# probed than at the weighter's bound, and one on 50 000 × 14 is not probed.
# Last, the heavy wide shapes' pinned reads (TestWideRouteCountsLarge:
# census 100 000 × 14 at K 3 and 20 000 × 14 at K 6, Workers 1, 2 and 8).
large:
	SMARTDRILL_LARGE=1 $(GO) test -run 'TestMillionRow|TestWideRootProbe' -v .
	SMARTDRILL_LARGE=1 $(GO) test -run 'TestWideRouteCountsLarge' -v ./internal/brs/
