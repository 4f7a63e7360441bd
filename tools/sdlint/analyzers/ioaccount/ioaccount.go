// Package ioaccount checks that the engine's I/O counters stay honest.
//
// The paper's cost model — and drillload's wire.* and
// search_work_per_drill counters, which make drillload-check gates
// exactly — rely on the scan/postings/bitmap counters (Stats.RowsScanned,
// Stats.PostingsRead, Stats.BitmapWordsRead in the search layer; the
// Store's rowsRead/indexRowsRead/... mirrors in the storage layer)
// being exact. Every site that touches a posting list, bitset words, or
// scans rows must therefore either be an accounted helper (it books the
// matching counter itself, directly or through an accounted callee) or
// leave a matching increment in the calling function.
//
// Raw I/O surfaces are declared with a doc-comment directive:
//
//	//sdlint:io rows|postings|bitmap
//
// and the analyzer exports two facts per function for downstream
// packages: RawFact (this callee performs I/O of these classes) and
// AccountedFact (that I/O is booked by the callee itself). A
// cross-package caller of a raw callee is flagged unless the callee is
// self-accounted or the caller books the class — which is how
// storage.Store.FilterRows stays callable from internal/drill without
// drill-side accounting, and how deleting the Store's booking line
// lights up every dependent package. The rawOps table below seeds the
// same classification by name for the metering kernels, so goldens and
// scratch modules work without annotations.
//
// ioaccount flags, in internal/brs, internal/table, internal/drill,
// internal/search and internal/storage, any function that invokes a raw
// I/O operation without a matching counter increment in its body. Sites
// whose accounting genuinely happens elsewhere (e.g. gatherers that
// only collect list headers for a kernel to consume) carry
// //sdlint:allow ioaccount <reason>.
package ioaccount

import (
	"go/ast"
	"go/types"
	"sort"

	"smartdrill/tools/sdlint/analysis"
	"smartdrill/tools/sdlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ioaccount",
	Doc: "flag posting-list/bitmap/row-scan access without a matching Stats increment\n\n" +
		"RowsScanned, PostingsRead and BitmapWordsRead back the cost model and the\n" +
		"bench gates; raw I/O outside accounted helpers silently skews them. Suppress\n" +
		"caller-accounted sites with //sdlint:allow ioaccount <reason>.",
	Run:       run,
	FactTypes: []analysis.Fact{new(RawFact), new(AccountedFact)},
}

// RawFact marks a function as a raw I/O surface: calling it performs
// I/O of the listed classes, which someone must account.
type RawFact struct{ Classes []string }

func (*RawFact) AFact() {}

// AccountedFact marks a function as booking the listed classes itself
// (in its own body, or through a self-accounted raw callee), so callers
// owe nothing for them.
type AccountedFact struct{ Classes []string }

func (*AccountedFact) AFact() {}

var scope = []string{"internal/brs", "internal/table", "internal/drill", "internal/search", "internal/storage"}

// class partitions raw operations by the counter family that must book
// them.
type class int

const (
	rowscan class = iota
	postings
	bitmap
	numClasses
)

// String names the class in diagnostics.
func (c class) String() string {
	return [...]string{"rows", "posting entries", "bitmap words"}[c]
}

// name is the class's short spelling in //sdlint:io directives and
// serialized facts.
func (c class) name() string {
	return [...]string{"rows", "postings", "bitmap"}[c]
}

var classByName = map[string]class{"rows": rowscan, "postings": postings, "bitmap": bitmap}

// classSet is a small bitset over the three classes.
type classSet uint8

func (s classSet) has(c class) bool              { return s&(1<<c) != 0 }
func (s *classSet) add(c class)                  { *s |= 1 << c }
func (s *classSet) union(o classSet)             { *s |= o }
func (s classSet) empty() bool                   { return s == 0 }
func (s classSet) minus(o classSet) classSet     { return s &^ o }
func (s classSet) intersect(o classSet) classSet { return s & o }

func (s classSet) names() []string {
	var out []string
	for c := class(0); c < numClasses; c++ {
		if s.has(c) {
			out = append(out, c.name())
		}
	}
	return out
}

func setOf(cs ...class) classSet {
	var s classSet
	for _, c := range cs {
		s.add(c)
	}
	return s
}

func setOfNames(names []string) classSet {
	var s classSet
	for _, n := range names {
		if c, ok := classByName[n]; ok {
			s.add(c)
		}
	}
	return s
}

// statsFields lists the counter field names that satisfy each class:
// the search layer's exported Stats fields and the storage layer's
// unexported mirrors. SampledRowsScanned/sampledRowsRead cover the
// confidence-bounded sampling paths.
var statsFields = map[class][]string{
	rowscan:  {"RowsScanned", "SampledRowsScanned", "rowsRead", "sampledRowsRead"},
	postings: {"PostingsRead", "indexRowsRead", "searchIndexRead"},
	bitmap:   {"BitmapWordsRead", "searchBitmapRead"},
}

// rawOps maps "pkg.Recv.Func" (package NAME, so analysistest stubs
// qualify) to the I/O classes the callee performs. These are the ways the
// engine touches storage below the accounted storage.Store layer; the
// Store's own raw surfaces are declared in-source with //sdlint:io and
// travel as facts.
var rawOps = map[string]classSet{
	"table.Index.Postings":    setOf(postings),         // hands out the raw posting list
	"table.Index.Lookup":      setOf(postings),         // metered kernel: returns postingsRead
	"table.View.EachInAll":    setOf(postings, bitmap), // metered kernel: returns entries read and words probed
	"table.Index.Bitmap":      setOf(bitmap),           // hands out the raw bitset
	"table..AndCount":         setOf(bitmap),           // metered kernel: returns wordsRead
	"table..AndEach":          setOf(bitmap),           // metered kernel: returns wordsRead
	"table.View.Refine":       setOf(rowscan),          // full scan of the view's rows
	"brs.runner.parallelRows": setOf(rowscan),          // chunked row fan-out of a counting pass
}

// exemptCallees perform no data-plane I/O despite living next to it:
// PostingsLen reads catalog metadata (list lengths) for the planner.
var exemptCallees = map[string]bool{
	"table.Index.PostingsLen": true,
}

// funcInfo is the per-function classification the package pass builds
// before checking call sites.
type funcInfo struct {
	decl      *ast.FuncDecl
	raw       classSet // declared raw surface (seed table or //sdlint:io)
	booked    classSet // books a counter field of the class in its body
	accounted classSet // booked, or delegates to a self-accounted raw callee
	callees   []*types.Func
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PathIn(pass.Pkg.Path(), scope...) {
		return nil, nil
	}

	funcs := classify(pass)

	// Accounted-ness propagates through local delegation to a fixpoint:
	// CountExact performs its rows I/O entirely through Scan, which
	// books it, so CountExact is accounted too.
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, callee := range fi.callees {
				raw, acc := calleeClasses(pass, funcs, callee)
				gain := raw.intersect(acc).minus(fi.accounted)
				if !gain.empty() {
					fi.accounted.union(gain)
					changed = true
				}
			}
		}
	}

	// Export facts in deterministic order for reproducible .vetx files.
	var order []*types.Func
	for fn := range funcs {
		order = append(order, fn)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })
	for _, fn := range order {
		fi := funcs[fn]
		if !fi.raw.empty() {
			pass.ExportObjectFact(fn, &RawFact{Classes: fi.raw.names()})
		}
		if !fi.accounted.empty() {
			pass.ExportObjectFact(fn, &AccountedFact{Classes: fi.accounted.names()})
		}
	}

	for _, fn := range order {
		checkFunc(pass, funcs, funcs[fn])
	}
	return nil, nil
}

// classify builds the per-function tables for this package's non-test
// declarations: declared rawness, locally booked classes, and the
// callee list the fixpoint and the checker walk.
func classify(pass *analysis.Pass) map[*types.Func]*funcInfo {
	funcs := make(map[*types.Func]*funcInfo)
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{decl: fd}
			fi.raw.union(rawOps[opKey(fn)])
			for _, arg := range analysis.FuncDirectives(fd, "io") {
				name, _, _ := cutWord(arg)
				cls, ok := classByName[name]
				if !ok {
					pass.Reportf(fd.Pos(), "//sdlint:io %q is not an I/O class (want rows, postings or bitmap)", name)
					continue
				}
				fi.raw.add(cls)
			}
			fi.booked = bookedClasses(fd)
			fi.accounted = fi.booked
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := lintutil.Callee(pass.TypesInfo, call); callee != nil {
					fi.callees = append(fi.callees, callee)
				}
				return true
			})
			funcs[fn] = fi
		}
	}
	return funcs
}

// calleeClasses resolves a callee's raw and accounted class sets: from
// the local tables when it is declared in this package, from imported
// facts otherwise, with the name-keyed seed table applying everywhere.
func calleeClasses(pass *analysis.Pass, funcs map[*types.Func]*funcInfo, callee *types.Func) (raw, acc classSet) {
	raw.union(rawOps[opKey(callee)])
	if fi, isLocal := funcs[callee]; isLocal {
		raw.union(fi.raw)
		acc.union(fi.accounted)
		return raw, acc
	}
	var rf RawFact
	if pass.ImportObjectFact(callee, &rf) {
		raw.union(setOfNames(rf.Classes))
	}
	var af AccountedFact
	if pass.ImportObjectFact(callee, &af) {
		acc.union(setOfNames(af.Classes))
	}
	return raw, acc
}

func checkFunc(pass *analysis.Pass, funcs map[*types.Func]*funcInfo, fi *funcInfo) {
	// The metering layer itself is exempt: a raw op's own body (and the
	// metadata helpers) measure rather than consume.
	if own, ok := pass.TypesInfo.Defs[fi.decl.Name].(*types.Func); ok {
		if !fi.raw.empty() || exemptCallees[opKey(own)] {
			return
		}
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		key := opKey(fn)
		if exemptCallees[key] {
			return true
		}
		raw, acc := calleeClasses(pass, funcs, fn)
		needs := raw.minus(acc)
		if needs.empty() {
			return true
		}
		for c := class(0); c < numClasses; c++ {
			if !needs.has(c) || fi.booked.has(c) {
				continue
			}
			pass.Reportf(call.Pos(), "%s reads %s but this function never adds to Stats.%s: account the read here or move it into an accounted helper",
				key, c, statsFields[c][0])
		}
		return true
	})
}

// opKey renders fn as "pkg.Recv.Name" with an empty Recv for plain
// functions, matching the rawOps table.
func opKey(fn *types.Func) string {
	return lintutil.PkgName(fn) + "." + lintutil.RecvTypeName(fn) + "." + fn.Name()
}

// bookedClasses collects the classes whose counter fields this function
// assigns to (x.Stats.Field += n, stats.Field++, s.rowsRead += n, ...),
// anywhere in its body including closures: counting passes fan work out
// to workers and book the merged totals afterwards.
func bookedClasses(fd *ast.FuncDecl) classSet {
	fieldClass := make(map[string]class)
	for c, names := range statsFields {
		for _, f := range names {
			fieldClass[f] = c
		}
	}
	var booked classSet
	note := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if c, ok := fieldClass[sel.Sel.Name]; ok {
				booked.add(c)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(n.X)
		}
		return true
	})
	return booked
}

// cutWord splits s at its first space.
func cutWord(s string) (first, rest string, ok bool) {
	for i, r := range s {
		if r == ' ' || r == '\t' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
