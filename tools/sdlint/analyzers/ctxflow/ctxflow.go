// Package ctxflow checks that context.Context threads through the engine
// instead of being dropped at an internal boundary — the cancellation
// contract the streaming API depends on.
//
// Four rules:
//
//  1. A function that has a context.Context (or *net/http.Request) in
//     scope must not call the context-free form of a function that has a
//     Ctx variant: call ExpandCtx(ctx, ...), not Expand(...).
//  2. A declared context.Context parameter must be used (or be named _):
//     accepting ctx and ignoring it silently breaks cancellation for
//     every caller upstream.
//  3. In internal/brs (not its subpackages), any loop that drives counting passes must poll
//     cancellation between passes (rn.canceled(), run.ctxErr, ctx.Err(),
//     or ctx.Done()): passes are the unit of interruption, so a loop
//     that never polls can outlive its caller by an entire search. The
//     passes are named in a table, and an entry that names no function
//     of internal/brs is itself a diagnostic: a pass renamed or deleted
//     must not leave the rule watching nothing.
//  4. A goroutine closure that captures a context — a ctx-typed local or
//     field declared outside the closure — has that context in scope
//     exactly as a parameter would be: non-Ctx calls inside the spawned
//     body are flagged even when the enclosing function declares no ctx
//     parameter. Spawned work is where a dropped context hurts most,
//     because nothing upstream can cancel it once it detaches.
//
// _test.go files are exempt. Suppress deliberate exceptions (e.g. an
// interface implementation that genuinely cannot honor cancellation)
// with //sdlint:allow ctxflow <reason>.
package ctxflow

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"smartdrill/tools/sdlint/analysis"
	"smartdrill/tools/sdlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag dropped contexts: non-Ctx calls with a ctx in scope (including goroutine closures capturing one), unused ctx params, unpolled counting loops\n\n" +
		"Cancellation flows through Ctx variants and per-pass polling; a single dropped\n" +
		"context breaks the whole chain. Suppress deliberate exceptions with\n" +
		"//sdlint:allow ctxflow <reason>.",
	Run: run,
}

// passFuncs are the BRS counting passes: the units of work between which
// cancellation is polled (internal/brs only, rule 3). Each must name a
// function of internal/brs (checkPassFuncs).
var passFuncs = map[string]bool{
	"findBestMarginal": true,
	"countCandidates":  true,
	"expandParents":    true,
	"raiseTopW":        true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Rule 3 is the runner's: internal/brs itself, not the packages under
	// it (the test oracle internal/brs/brsref declares no pass).
	brs := strings.HasSuffix("/"+pass.Pkg.Path(), "/internal/brs")
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxCalls(pass, fd)
			checkGoClosures(pass, fd)
			checkUnusedCtx(pass, fd)
			if brs {
				checkLoopPolling(pass, fd)
			}
		}
	}
	if brs {
		checkPassFuncs(pass)
	}
	return nil, nil
}

// checkPassFuncs implements rule 3's table check: every passFuncs entry
// names a function or method declared in the package's non-test files.
// A stale entry is reported, in name order, at the package clause of the
// first such file.
func checkPassFuncs(pass *analysis.Pass) {
	declared := make(map[string]bool)
	var first *ast.File
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		if first == nil {
			first = file
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[fd.Name.Name] = true
			}
		}
	}
	if first == nil {
		return
	}
	var stale []string
	for name := range passFuncs {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		pass.Reportf(first.Name.Pos(), "ctxflow's passFuncs names %s, which no function of this package declares: drop or rename the entry", name)
	}
}

// checkCtxCalls implements rule 1: with a ctx (or request) parameter in
// scope, prefer the Ctx variant of any callee that has one.
func checkCtxCalls(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !hasCtxParam(pass.TypesInfo, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if sib := ctxSibling(fn); sib != nil {
			pass.Reportf(call.Pos(), "call to %s with a context in scope: use %s so cancellation propagates", fn.Name(), sib.Name())
		}
		return true
	})
}

// checkGoClosures implements rule 4: a goroutine closure capturing a
// context from its enclosing scope has that context in scope just as a
// parameter would be. Skipped when the enclosing function declares a ctx
// parameter — rule 1 already walks the whole body, nested closures
// included, and would double-report.
func checkGoClosures(pass *analysis.Pass, fd *ast.FuncDecl) {
	if hasCtxParam(pass.TypesInfo, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok || !capturesContext(pass.TypesInfo, lit) {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if sib := ctxSibling(fn); sib != nil {
				pass.Reportf(call.Pos(), "call to %s inside a goroutine that captures a context: use %s so the spawned work honors cancellation", fn.Name(), sib.Name())
			}
			return true
		})
		return true
	})
}

// capturesContext reports whether lit references a context-typed
// variable declared outside the literal (a captured local or a struct
// field), as opposed to one of its own parameters.
func capturesContext(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, isVar := info.Uses[id].(*types.Var); isVar &&
				lintutil.IsContextType(obj.Type()) &&
				(obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkUnusedCtx implements rule 2: a named context.Context parameter
// must appear in the body.
func checkUnusedCtx(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t == nil || !lintutil.IsContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil || usesObject(pass.TypesInfo, fd.Body, obj) {
				continue
			}
			pass.Reportf(name.Pos(), "context parameter %s is never used: thread it into the calls below or rename it _", name.Name)
		}
	}
}

// checkLoopPolling implements rule 3 for internal/brs.
func checkLoopPolling(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if drivesPasses(pass.TypesInfo, body) && !pollsCancellation(pass.TypesInfo, body) {
			pass.Reportf(n.Pos(), "loop drives counting passes but never polls cancellation: check rn.canceled() / run.ctxErr between passes")
		}
		return true
	})
}

// drivesPasses reports whether the loop body calls a counting pass.
func drivesPasses(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := lintutil.Callee(info, call); fn != nil && passFuncs[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// pollsCancellation reports whether the loop body observes cancellation:
// a call to a method named canceled or Err on a context, a read of a
// ctxErr field, or a receive from ctx.Done().
func pollsCancellation(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := lintutil.Callee(info, n); fn != nil {
				switch fn.Name() {
				case "canceled", "Done":
					found = true
				case "Err":
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && lintutil.IsContextType(sig.Recv().Type()) {
						found = true
					}
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "ctxErr" {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasCtxParam reports whether fd declares a context.Context or
// *net/http.Request parameter.
func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if lintutil.IsContextType(t) || lintutil.IsHTTPRequest(t) {
			return true
		}
	}
	return false
}

// ctxSibling returns fn's Ctx variant — a function or method named
// fn.Name()+"Ctx" in the same scope whose first parameter is a
// context.Context — or nil.
func ctxSibling(fn *types.Func) *types.Func {
	if strings.HasSuffix(fn.Name(), "Ctx") {
		return nil
	}
	var obj types.Object
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == fn.Name()+"Ctx" {
				obj = m
				break
			}
		}
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(fn.Name() + "Ctx")
	}
	sib, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sibSig, ok := sib.Type().(*types.Signature)
	if !ok || sibSig.Params().Len() == 0 || !lintutil.IsContextType(sibSig.Params().At(0).Type()) {
		return nil
	}
	return sib
}

// usesObject reports whether obj is referenced anywhere under n.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
