#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build drillload inside the
# checkout and run it with the arguments given. The Go build cache is kept
# under bench/out/ so that a run reads and writes nothing outside the
# checkout; drillload builds smartdrilld itself, with the same cache.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$bench/out/gocache"
(cd "$bench" && go build -o out/bin/drillload ./drillload)
exec "$bench/out/bin/drillload" "$@"
