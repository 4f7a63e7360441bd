// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework, carrying exactly the surface
// sdlint's analyzers need: an Analyzer with a Run function over a Pass,
// Reportf diagnostics, and line-addressed suppression directives.
//
// It exists because sdlint must build in a hermetic environment where the
// main module stays dependency-free and x/tools may be unavailable. The
// API deliberately mirrors x/tools (same field and method names), so each
// analyzer would port to the real framework by changing one import path.
//
// Facts and Requires chaining are absent: each analyzer is self-contained
// and sees one package at a time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer (flag name under `go vet -vettool`,
	// and the default suppression key).
	Name string
	// Doc is the help text; its first line is the one-line summary.
	Doc string
	// Run applies the check to one package. The interface{} result is
	// kept for x/tools signature compatibility; sdlint analyzers return
	// nil.
	Run func(*Pass) (interface{}, error)
	// AllowKeys lists extra `//sdlint:allow <key>` keys that suppress
	// this analyzer's diagnostics, beyond Name itself (detwalk, for
	// example, is suppressed by the more readable key "nondeterminism").
	AllowKeys []string
}

// Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Populated by the driver;
	// suppression directives are applied by the driver after Run
	// returns, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks the analyzer set for driver use.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q has no name or no Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
