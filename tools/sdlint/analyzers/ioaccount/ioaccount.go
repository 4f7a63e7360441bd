// Package ioaccount checks that the engine's I/O counters stay honest.
//
// The paper's cost model — and drillload's wire.* and
// search_work_per_drill counters, which make drillload-check gates
// exactly — rely on the scan/postings/bitmap counters (Stats.RowsScanned,
// Stats.PostingsRead, Stats.BitmapWordsRead in the search layer; the
// Store's rowsRead/indexRowsRead mirrors in the storage layer) being
// exact. Every function that calls a raw I/O operation — one of the
// metering kernels in the rawOps table, which return what they read and
// book nothing — must therefore add to a counter of the matching class in
// its own body.
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

	"smartdrill/tools/sdlint/analysis"
	"smartdrill/tools/sdlint/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ioaccount",
	Doc: "flag posting-list/bitmap/row-scan access without a matching Stats increment\n\n" +
		"RowsScanned, PostingsRead and BitmapWordsRead back the cost model and the\n" +
		"bench gates; raw I/O outside accounted helpers silently skews them. Suppress\n" +
		"caller-accounted sites with //sdlint:allow ioaccount <reason>.",
	Run: run,
}

var scope = []string{"internal/brs", "internal/table", "internal/drill", "internal/search", "internal/storage"}

// class partitions raw operations by the counter family that must book
// them.
type class int

const (
	rowscan class = iota
	postings
	bitmap
)

// String names the class in diagnostics.
func (c class) String() string {
	return [...]string{"rows", "posting entries", "bitmap words"}[c]
}

// statsFields lists the counter field names that satisfy each class:
// the search layer's exported Stats fields and the storage layer's
// unexported mirrors. SampledRowsScanned covers the confidence-bounded
// sampling paths. Every name is a field some counter has: an assignment to
// a field of any name listed here counts as booking.
var statsFields = map[class][]string{
	rowscan:  {"RowsScanned", "SampledRowsScanned", "rowsRead"},
	postings: {"PostingsRead", "indexRowsRead"},
	bitmap:   {"BitmapWordsRead"},
}

// rawOps maps "pkg.Recv.Func" (package NAME, so analysistest stubs
// qualify) to the I/O classes the callee performs: the ways the engine
// touches table data.
var rawOps = map[string][]class{
	"table.Index.Container":      {postings, bitmap}, // hands out a value's one container: its posting list if sparse, its bitset if dense
	"table.Index.Postings":       {postings},         // hands out the raw posting list (a dense value's decoded from its bitset)
	"table.Index.Lookup":         {postings},         // metered kernel: returns postingsRead, bitset words included
	"table..EachInAll":           {postings, bitmap}, // metered kernel: returns entries read and words read (probes, and a dense driver's set bits)
	"table.View.EachInAll":       {postings, bitmap}, // EachInAll over a whole-table view, the benchmark's layer reading of the kernel
	"table.Index.Bitmap":         {bitmap},           // hands out the raw bitset
	"table..AndCount":            {bitmap},           // metered kernel: returns wordsRead
	"table..AndEach":             {bitmap},           // metered kernel: returns wordsRead
	"table.View.Refine":          {rowscan},          // full scan of the view's rows
	"table.View.Select":          {rowscan},          // copies a sub-view (its rows a rule covers) into a table of its own: returns the view rows it read
	"table.Table.EachRow":        {rowscan},          // the pass itself — over the table, or over its distinct tuples when a sample is drawn from them: returns the rows it offered
	"table.Table.SelectWeighted": {rowscan},          // hash-free weighted-table builder: returns the rows it copied
	"table.Table.GroupRows":      {rowscan},          // metered grouping pass: returns the rows it read
	"table.Table.Distinct":       {rowscan},          // GroupRows memoised per table: returns the rows its one pass read (0 once resolved)
	"sampling.View.Read":         {rowscan},          // SelectWeighted memoised per sample: the rows this serve read to build its Tab (0 once built)
	"brs.runner.parallelRows":    {rowscan},          // chunked row fan-out of a counting pass
	"brs.runner.polled":          {rowscan},          // parallelRows polling cancellation: returns the items its workers covered
}

// exemptCallees perform no data-plane I/O despite living next to it:
// PostingsLen reads catalog metadata (list lengths) for the planner.
var exemptCallees = map[string]bool{
	"table.Index.PostingsLen": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PathIn(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// The metering layer itself is exempt: a raw op's own body (and the
	// metadata helpers) measure rather than consume.
	if own, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if key := opKey(own); rawOps[key] != nil || exemptCallees[key] {
			return
		}
	}
	booked := bookedClasses(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		key := opKey(fn)
		for _, c := range rawOps[key] {
			if !booked[c] {
				pass.Reportf(call.Pos(), "%s reads %s but this function never adds to Stats.%s: account the read here or move it into an accounted helper",
					key, c, statsFields[c][0])
			}
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
func bookedClasses(fd *ast.FuncDecl) map[class]bool {
	fieldClass := make(map[string]class)
	for c, names := range statsFields {
		for _, f := range names {
			fieldClass[f] = c
		}
	}
	booked := make(map[class]bool)
	note := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if c, ok := fieldClass[sel.Sel.Name]; ok {
				booked[c] = true
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
