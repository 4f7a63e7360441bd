package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSdlint compiles the vettool once per test run.
func buildSdlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sdlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sdlint: %v\n%s", err, out)
	}
	return bin
}

// TestLintCleanOnTree is the `make lint` gate in miniature: the full
// analyzer suite must pass over the real repository, meaning every true
// violation has been fixed or carries a reasoned annotation.
func TestLintCleanOnTree(t *testing.T) {
	bin := buildSdlint(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("sdlint reports violations on the tree:\n%s", out)
	}
}

// TestLintCatchesViolations plants the acceptance scenario — a counting
// pass whose Stats increment was removed — in a scratch module and checks
// that the suite fails on it.
func TestLintCatchesViolations(t *testing.T) {
	bin := buildSdlint(t)
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	// ioaccount: parallelRows drives a counting pass, but the
	// RowsScanned increment has been "deleted".
	write("internal/brs/bad.go", `package brs

type Stats struct{ RowsScanned int64 }

type runner struct{ stats Stats }

func (rn *runner) parallelRows(n int, fn func(lo, hi, g int)) { fn(0, n, 0) }

func (rn *runner) countPass(rows []int) {
	rn.parallelRows(len(rows), func(lo, hi, g int) {})
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("sdlint passed a tree with planted violations:\n%s", out)
	}
	for _, wantFrag := range []string{"[ioaccount]", "Stats.RowsScanned"} {
		if !strings.Contains(string(out), wantFrag) {
			t.Errorf("vet output missing %q:\n%s", wantFrag, out)
		}
	}
}
