package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2ebatch/internal/lint"
)

// TestCleanTree is the acceptance gate: the pure go/types analyzers over the
// whole module exit 0. Satellite fixes (the seeded kvload RNG) keep it that
// way.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint re-typechecks every package; skipped under -short (the race gate)")
	}
	if code := run([]string{"./..."}, devNull(t), os.Stderr); code != 0 {
		t.Fatalf("e2elint ./... exited %d, want 0", code)
	}
}

// TestEscapesCleanTree is the other acceptance gate: the compiler-backed
// escape-analysis pass over every //e2e:hotpath function in the module
// exits 0 — no hot-path local reaches the heap.
func TestEscapesCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load + go build -gcflags=-m; skipped under -short (the race gate)")
	}
	if code := run([]string{"-escapes", "./..."}, devNull(t), os.Stderr); code != 0 {
		t.Fatalf("e2elint -escapes ./... exited %d, want 0", code)
	}
}

// TestEscapesSeededViolation proves -escapes fails the build when a hot
// function's locals escape: the escapes golden package leaks on purpose.
// The testdata's //lint:ignore e2elint/escapes directive is also live here,
// so the Justified leak must not be among the findings.
func TestEscapesSeededViolation(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "escapes")
	out := captureFile(t)
	if code := run([]string{"-escapes", dir}, out, devNull(t)); code != 1 {
		t.Fatalf("e2elint -escapes %s exited %d, want 1", dir, code)
	}
	got := readBack(t, out)
	if !strings.Contains(got, "moved to heap: x") || !strings.Contains(got, "escapes to heap") {
		t.Errorf("findings missing compiler escape diagnostics:\n%s", got)
	}
	if strings.Contains(got, "moved to heap: w") {
		t.Errorf("//lint:ignore e2elint/escapes failed to suppress the Justified finding:\n%s", got)
	}
}

// TestHotpathSeededViolation does the same for the AST half of the gate,
// including its ignore hatch (the Justified fmt.Sprintf carries one).
func TestHotpathSeededViolation(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "hotpath")
	out := captureFile(t)
	if code := run([]string{dir}, out, devNull(t)); code != 1 {
		t.Fatalf("e2elint %s exited %d, want 1", dir, code)
	}
	got := readBack(t, out)
	if !strings.Contains(got, "e2elint/hotpath") {
		t.Errorf("findings missing hotpath diagnostics:\n%s", got)
	}
	if strings.Contains(got, "suppressed") {
		t.Errorf("//lint:ignore e2elint/hotpath failed to suppress the Justified finding:\n%s", got)
	}
}

// TestSeededViolation proves the driver actually fails the build on a
// violation: the detrand golden package is riddled with them.
func TestSeededViolation(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "detrand")
	if code := run([]string{dir}, devNull(t), devNull(t)); code != 1 {
		t.Fatalf("e2elint %s exited %d, want 1", dir, code)
	}
}

// TestListFlag pins the -list contract: exit 0 and one line per registered
// analyzer, so the usage text can never drift from the suite.
func TestListFlag(t *testing.T) {
	out := captureFile(t)
	if code := run([]string{"-list"}, out, os.Stderr); code != 0 {
		t.Fatalf("e2elint -list exited %d, want 0", code)
	}
	got := readBack(t, out)
	for _, a := range lint.Analyzers() {
		if !strings.Contains(got, "e2elint/"+a.Name+":") {
			t.Errorf("-list output is missing analyzer %q:\n%s", a.Name, got)
		}
	}
	if n := strings.Count(strings.TrimSpace(got), "\n") + 1; n != len(lint.Analyzers()) {
		t.Errorf("-list printed %d lines, want %d", n, len(lint.Analyzers()))
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-nonsense"}, devNull(t), devNull(t)); code != 2 {
		t.Fatalf("e2elint -nonsense exited %d, want 2", code)
	}
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// captureFile returns a temp file standing in for stdout so tests can assert
// on the driver's output.
func captureFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "e2elint-out-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func readBack(t *testing.T, f *os.File) string {
	t.Helper()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
