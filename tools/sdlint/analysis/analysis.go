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
// Analyzer facts are supported in the x/tools shape — an analyzer lists
// its Fact types in FactTypes and calls Pass.ExportObjectFact /
// Pass.ImportObjectFact — with one deliberate narrowing: facts attach
// only to package-level functions and methods (*types.Func), because
// the one cross-package contract sdlint checks (ioaccount's accounted I/O
// helpers) is a property of a function. See
// facts.go for the encoding and FactKey for the object identity.
// Requires chaining remains absent: each analyzer is self-contained.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
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
	// FactTypes lists the fact types this analyzer exports and imports,
	// one zero value per type (e.g. new(AccountedFact)). An analyzer
	// with an empty FactTypes runs only on the packages being vetted;
	// one that declares facts additionally runs over module-internal
	// dependency packages so its exports are available downstream.
	FactTypes []Fact
}

// A Fact is cross-package analyzer state attached to a function. Fact
// types are pointers to JSON-serializable structs and identify
// themselves with the marker method.
type Fact interface {
	AFact()
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
	// ExportObjectFact associates fact with obj for downstream
	// packages. obj must be a function or method; facts on other
	// objects are silently dropped (see FactKey). Populated by the
	// driver.
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportObjectFact copies into fact the fact of that type
	// previously exported for obj (by a dependency package, or earlier
	// in this pass) and reports whether one existed. Populated by the
	// driver.
	ImportObjectFact func(obj types.Object, fact Fact) bool
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
		factNames := make(map[string]bool)
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if t == nil || t.Kind() != reflect.Ptr || t.Elem().Kind() != reflect.Struct {
				return fmt.Errorf("analysis: analyzer %q fact type %T is not a pointer to struct", a.Name, f)
			}
			name := t.Elem().Name()
			if factNames[name] {
				return fmt.Errorf("analysis: analyzer %q declares fact type %s twice", a.Name, name)
			}
			factNames[name] = true
		}
	}
	return nil
}
