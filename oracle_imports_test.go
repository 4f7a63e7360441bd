package smartdrill

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOracleStaysInTests: internal/brs/brsref, the literal Algorithms 1–2
// the BRS tests hold the runner to, is test-only code. No non-test file of
// this module may import it, and it may import no package of internal/brs,
// so that it shares no code with the runner it checks. Nested modules
// (bench/, tools/) are not this module and are not walked.
func TestOracleStaysInTests(t *testing.T) {
	const oracle = "smartdrill/internal/brs/brsref"
	fset := token.NewFileSet()
	oracleFiles := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		inOracle := filepath.ToSlash(filepath.Dir(path)) == "internal/brs/brsref"
		if inOracle {
			oracleFiles++
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			switch {
			case p == oracle:
				t.Errorf("%s imports %s, which only _test.go files may", path, p)
			case inOracle && (p == "smartdrill/internal/brs" || strings.HasPrefix(p, "smartdrill/internal/brs/")):
				t.Errorf("%s imports %s: the oracle must share no code with the runner", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if oracleFiles == 0 {
		t.Fatal("no file of internal/brs/brsref was walked: the guard checks nothing")
	}
}
