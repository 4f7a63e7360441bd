// Command sdlint is smartdrill's repo-specific static-analysis suite: a
// go/analysis-style multichecker that machine-checks the engine's
// cross-cutting invariants — context threading, determinism of
// result-producing paths, and API error-code coverage.
// See docs/INVARIANTS.md at the repository root for the
// catalogue and the annotation syntax.
//
// Run it through the go command, which supplies type information per
// package (or just use `make lint` at the repository root):
//
//	go build -o tools/sdlint/bin/sdlint ./tools/sdlint
//	go vet -vettool=$PWD/tools/sdlint/bin/sdlint ./...
//
// Individual analyzers can be selected like standard vet checks:
//
//	go vet -vettool=... -detwalk ./internal/...
package main

import (
	"smartdrill/tools/sdlint/analysis/unitchecker"
	"smartdrill/tools/sdlint/analyzers/apicodes"
	"smartdrill/tools/sdlint/analyzers/ctxflow"
	"smartdrill/tools/sdlint/analyzers/detwalk"
)

func main() {
	unitchecker.Main(
		ctxflow.Analyzer,
		detwalk.Analyzer,
		apicodes.Analyzer,
	)
}
