// Package analysistest runs an analyzer over golden packages under a
// testdata directory and checks its diagnostics against "// want"
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// Layout: testdata/src/<pkgpath>/*.go. A line expecting a diagnostic
// carries a comment of the form
//
//	code() // want "regexp" "second regexp"
//
// with one quoted regexp per expected diagnostic on that line. Imports
// between testdata packages resolve within testdata/src; standard
// library imports resolve from source via go/importer, so no compiled
// export data is needed.
//
// Suppression directives are applied before matching, exactly as the
// unitchecker driver applies them, so golden packages can assert both
// that a pattern is flagged and that an annotated twin is not.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smartdrill/tools/sdlint/analysis"
)

// TestData returns the calling test's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "testdata")
}

// Run analyzes each package path (relative to dir/src) with a and
// reports mismatches against the package's want expectations on t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := newLoader(filepath.Join(dir, "src"))
	for _, path := range pkgpaths {
		pkg, files, err := ld.load(path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		check(t, ld, a, path, pkg, files)
	}
}

func check(t *testing.T, ld *loader, a *analysis.Analyzer, path string, pkg *types.Package, files []*ast.File) {
	t.Helper()
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      ld.fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: ld.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Errorf("%s: analyzer %s failed: %v", path, a.Name, err)
		return
	}
	diags = analysis.ApplySuppression(ld.fset, files, a, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	wants := collectWants(t, ld.fset, files)
	for _, d := range diags {
		pos := ld.fset.Position(d.Pos)
		key := wantKey{pos.Filename, pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w.used || !w.re.MatchString(d.Message) {
				continue
			}
			wants[key][i].used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile(`(?:^|\s)want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses `// want "re" ...` comments, keyed by the line the
// comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]want {
	t.Helper()
	wants := make(map[wantKey][]want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Accept both //-comments and /* */ blocks: the latter let a
				// want expectation share a line with an //sdlint directive.
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				m := wantRE.FindStringSubmatch(text)
				if m == nil || !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					lit, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want literal %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, lit, err)
						continue
					}
					key := wantKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}

// loader parses and type-checks testdata packages, resolving sibling
// testdata imports first and standard library imports from GOROOT
// source. One shared Info carries the type facts of every loaded
// package; passes only receive their own files, so the surplus entries
// are invisible to analyzers.
type loader struct {
	srcdir string
	fset   *token.FileSet
	info   *types.Info
	std    types.Importer
	pkgs   map[string]*types.Package
	asts   map[string][]*ast.File
}

func newLoader(srcdir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		srcdir: srcdir,
		fset:   fset,
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Instances:  make(map[*ast.Ident]types.Instance),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
		asts: make(map[string][]*ast.File),
	}
}

func (l *loader) load(path string) (*types.Package, []*ast.File, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, l.asts[path], nil
	}
	dir := filepath.Join(l.srcdir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	tc := &types.Config{Importer: importerFunc(l.importPkg)}
	pkg, err := tc.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, nil, err
	}
	l.pkgs[path] = pkg
	l.asts[path] = files
	return pkg, files, nil
}

// importPkg prefers a sibling testdata package, falling back to the
// source importer for the standard library.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.srcdir, filepath.FromSlash(path))); err == nil {
		pkg, _, err := l.load(path)
		return pkg, err
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
