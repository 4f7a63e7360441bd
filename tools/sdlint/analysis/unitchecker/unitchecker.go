// Package unitchecker implements the `go vet -vettool` driver protocol
// for sdlint's miniature analysis framework, using only the standard
// library: cmd/go compiles each package, writes a JSON "vet config"
// describing its files and the export data of its imports, and invokes
// the tool as
//
//	sdlint [flags] <dir>/vet.cfg
//
// The tool must also answer two introspection invocations cmd/go makes
// before any analysis: `-flags` (print a JSON description of supported
// flags, used to split the `go vet` command line) and `-V=full` (print a
// version line including a content hash, used as the cache key so edits
// to sdlint invalidate cached vet results).
//
// sdlint's analyzers export no facts, so the facts half of the protocol
// is answered minimally: cmd/go still visits every dependency in
// "VetxOnly" mode and expects the fact file (.vetx) it named, which is
// written empty, without parsing anything.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"smartdrill/tools/sdlint/analysis"
)

// Config is the JSON schema of cmd/go's vet.cfg, mirroring
// cmd/go/internal/work.vetConfig. Unused fields are retained so the
// decoder tolerates every field cmd/go writes.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a multichecker built on this driver.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	printFlags := flag.Bool("flags", false, "print flags in JSON for cmd/go")
	flag.Var(versionFlag{}, "V", "print version and exit (-V=full for a build hash)")
	enabled := make(map[string]*bool)
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = flag.Bool(a.Name, false, doc)
	}
	flag.Parse()

	if *printFlags {
		emitFlags()
		os.Exit(0)
	}

	// cmd/go semantics: naming any analyzer flag runs only the named
	// ones; otherwise all run.
	var selected []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		selected = analyzers
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf(`invoking sdlint directly is unsupported; use "go vet -vettool=$(command -v sdlint)" (or "make lint")`)
	}
	run(args[0], selected)
}

// run loads one vet.cfg, analyzes the package, prints diagnostics to
// stderr, and exits nonzero when any survive suppression.
func run(cfgFile string, analyzers []*analysis.Analyzer) {
	raw, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0) // the compiler will report it better
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	exit := 0
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
		diags = analysis.ApplySuppression(fset, files, a, diags)
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), a.Name, d.Message)
			exit = 2
		}
	}
	os.Exit(exit)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// emitFlags prints the JSON flag inventory cmd/go requests with -flags.
func emitFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		out = append(out, jsonFlag{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// versionFlag implements -V=full: cmd/go keys its vet-result cache on
// this output, so it must change whenever the binary does — hence the
// content hash.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() interface{} { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%02x\n", filepath.Base(os.Args[0]), sha256.Sum256(data))
	os.Exit(0)
	return nil
}
