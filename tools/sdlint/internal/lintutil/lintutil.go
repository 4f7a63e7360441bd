// Package lintutil carries the small AST/type helpers shared by the
// sdlint analyzers: callee resolution, path-scoped package matching, type
// tests, and test-file detection.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether the file is a _test.go file — sdlint's
// invariants govern production paths; tests are free to range over maps,
// read clocks, and poke unexported state.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// Callee resolves the *types.Func a call invokes (methods included), or
// nil for calls through function values, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// PathIn reports whether pkgpath lies in one of the given package-path
// fragments: the fragment must appear on path-element boundaries, so
// "internal/brs" matches both "smartdrill/internal/brs" and the
// analysistest path "internal/brs", while "api" matches "smartdrill/api"
// but not "smartdrill/capi".
func PathIn(pkgpath string, frags ...string) bool {
	padded := "/" + pkgpath + "/"
	for _, f := range frags {
		if strings.Contains(padded, "/"+f+"/") {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsHTTPRequest reports whether t is *net/http.Request.
func IsHTTPRequest(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}
