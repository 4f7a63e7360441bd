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

// TestLintCatchesViolations plants a violation — a result-producing loop
// that ranges over a map, so its output follows the map's random order — in
// a scratch module and checks that the suite fails on it.
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
	// detwalk: the rules a search returns are listed in map order.
	write("internal/brs/bad.go", `package brs

func rules(byKey map[string]float64) []string {
	var out []string
	for key := range byKey {
		out = append(out, key)
	}
	return out
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("sdlint passed a tree with planted violations:\n%s", out)
	}
	for _, wantFrag := range []string{"[detwalk]", "range over a map"} {
		if !strings.Contains(string(out), wantFrag) {
			t.Errorf("vet output missing %q:\n%s", wantFrag, out)
		}
	}
}
