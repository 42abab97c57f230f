package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyzerRegistry(t *testing.T) {
	as := Analyzers()
	if len(as) != 8 {
		t.Fatalf("suite has %d analyzers, want 8 (locksafety, determinism, snapshotpair, mutexhold, enginewiring, hotpath, escapes, pertickerconn)", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is missing a name or doc", a)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must set exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestSuiteCleanOnTree is the tier-1 contract: the full analyzer set over
// every module package reports nothing. A finding here means either a real
// invariant violation slipped in or an analyzer grew a false positive —
// both block the build by design.
func TestSuiteCleanOnTree(t *testing.T) {
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	// One CheckPackages call, not one per package: the module-level analyzers
	// (hotpath, escapes) must see the whole package set so cross-package
	// callee edges resolve.
	for _, d := range CheckPackages(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestLoadDirHonoursBuildConstraints: a directory holding a race/!race pair
// (and a file for another GOOS) loads as the one package the go tool would
// build, not as every .go file with the pair's function declared twice.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir("testdata/src/buildtags")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
	}
	if len(names) != 1 || names[0] != "norace.go" {
		t.Fatalf("loaded %v, want [norace.go]", names)
	}
}

// TestIgnoreDirectives covers the escape hatch end to end: justified
// directives suppress, unjustified or unknown ones are findings themselves
// and suppress nothing.
func TestIgnoreDirectivesSuppress(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir("testdata/src/ignore")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Check(pkg, Analyzers()); len(diags) != 0 {
		t.Fatalf("justified ignores should suppress everything, got %v", diags)
	}
}

func TestBadIgnoreDirectives(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir("testdata/src/badignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(pkg, Analyzers())
	var missingReason, unknownName, randFindings int
	for _, d := range diags {
		switch {
		case d.Analyzer == "directive" && strings.Contains(d.Message, "missing its reason"):
			missingReason++
		case d.Analyzer == "directive" && strings.Contains(d.Message, "unknown analyzer"):
			unknownName++
		case d.Analyzer == "determinism":
			randFindings++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if missingReason != 1 || unknownName != 1 {
		t.Errorf("directive findings: missing-reason=%d unknown-name=%d, want 1 and 1 (all: %v)",
			missingReason, unknownName, diags)
	}
	if randFindings != 2 {
		t.Errorf("broken directives must not suppress: got %d determinism findings, want 2 (all: %v)",
			randFindings, diags)
	}
}
