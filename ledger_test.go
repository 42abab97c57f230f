package e2ebatch_test

// Claims ledger (tier-1 via `make test`; alone: `go test -run
// TestClaimsLedger .`): the table at the top of EXPERIMENTS.md is the one
// list of what this repository shows about the paper. Each row names a
// claim, its status, the tests that pin it and the command that regenerates
// it; every e2efig figure and both fidelity reports sit in exactly one row,
// and each row backed by a TestClaims entry quotes that entry's pass rate over
// seeds from the last `make claims`.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"e2ebatch/internal/figures"
)

// reports are the goldens of cmd/fidelity's two reports, which are not
// e2efig figures but back claims of their own.
var reports = []string{"TestFidelityGolden", "TestTailFidelityGolden"}

var (
	testNameRe = regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)(?:/([^`]+))?`")
	figFlagRe  = regexp.MustCompile("e2efig -fig ([^\\s`]+)")
)

// ledgerRow is one claim: its cells as written, split on '|'.
type ledgerRow struct {
	claim, status, seeds, pinned, repro string
}

func TestClaimsLedger(t *testing.T) {
	for _, e := range ledgerErrors(t, readLedger(t), claimSeeds(t)) {
		t.Error(e)
	}
}

// TestClaimsLedgerCatchesStaleSeeds feeds the check a ledger whose toggle
// row quotes a rate the seed sweep did not measure.
func TestClaimsLedgerCatchesStaleSeeds(t *testing.T) {
	seeds := claimSeeds(t)
	doc := strings.Replace(readLedger(t), "toggle "+seeds["toggle"], "toggle 99/99", 1)
	errs := ledgerErrors(t, doc, seeds)
	if len(errs) != 1 || !strings.Contains(errs[0], `"toggle 99/99"`) {
		t.Errorf("a stale Seeds cell gave %d errors, want the one naming it: %q", len(errs), errs)
	}
}

func readLedger(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// claimSeeds maps each TestClaims entry to the k/N of the last seed sweep
// (`make claims`), read from the file that sweep writes.
func claimSeeds(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile("internal/figures/testdata/claims_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(src), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] != "#" {
			out[f[0]] = f[1]
		}
	}
	return out
}

// ledgerErrors checks doc's ledger against the declared tests, the figures
// and the seed sweep: a row citing TestClaims/<entry> quotes each entry's
// "<entry> k/N" in its Seeds cell ("—" when it cites none), and says "k of N
// seeds" in its status when an entry falls short of N/N.
func ledgerErrors(t *testing.T, doc string, seeds map[string]string) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	declared := declaredTests(t)
	figRows := map[string]int{}
	reportRows := map[string]int{}
	for _, r := range parseLedger(t, doc) {
		if !strings.HasPrefix(r.status, "reproduced") && !strings.HasPrefix(r.status, "refuted") &&
			!strings.HasPrefix(r.status, "extension") {
			fail("row %q: status %q is not reproduced, refuted or extension", r.claim, r.status)
		}
		names := testNameRe.FindAllStringSubmatch(r.pinned, -1)
		if len(names) == 0 {
			fail("row %q names no test that pins it", r.claim)
		}
		var rates []string
		for _, m := range names {
			file, ok := declared[m[1]]
			if !ok {
				fail("row %q: no _test.go file declares %s", r.claim, m[1])
				continue
			}
			if m[2] != "" && !strings.Contains(file, `"`+m[2]+`"`) {
				fail("row %q: %s has no subtest %q", r.claim, m[1], m[2])
			}
			reportRows[m[1]]++
			if m[1] != "TestClaims" {
				continue
			}
			rate, ok := seeds[m[2]]
			if !ok {
				fail("row %q: the seed sweep has no line for %s", r.claim, m[2])
			}
			rates = append(rates, m[2]+" "+rate)
			if k, n, _ := strings.Cut(rate, "/"); k != n && !strings.Contains(r.status, k+" of "+n+" seeds") {
				fail("row %q: %s holds at %s seeds, and its status does not say %q", r.claim, m[2], rate, k+" of "+n+" seeds")
			}
			reportRows["TestClaims/"+m[2]]++
		}
		want := "—"
		if len(rates) > 0 {
			want = strings.Join(rates, ", ")
		}
		if r.seeds != want {
			fail("row %q: Seeds %q, want %q from the last `make claims`", r.claim, r.seeds, want)
		}
		for _, m := range figFlagRe.FindAllStringSubmatch(r.repro, -1) {
			figRows[m[1]]++
		}
	}

	known := map[string]bool{}
	for _, f := range figures.Figures() {
		known[f.Name] = true
		if n := figRows[f.Name]; n != 1 {
			fail("figure %q has %d ledger rows, want 1", f.Name, n)
		}
	}
	for name := range figRows {
		if !known[name] {
			fail("ledger names figure %q, which e2efig does not render", name)
		}
	}
	for _, name := range reports {
		if n := reportRows[name]; n != 1 {
			fail("fidelity report %s is pinned in %d ledger rows, want 1", name, n)
		}
	}
	for name := range seeds {
		if n := reportRows["TestClaims/"+name]; n != 1 {
			fail("claim TestClaims/%s is cited in %d ledger rows, want 1", name, n)
		}
	}
	return errs
}

// parseLedger returns the rows of the table under the "## Claims ledger"
// heading, header and separator skipped.
func parseLedger(t *testing.T, doc string) []ledgerRow {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n## Claims ledger\n")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Claims ledger" section`)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	var rows []ledgerRow
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// A cell writes a literal pipe as \|, as GitHub's tables do.
		line = strings.ReplaceAll(line, `\|`, "\x00")
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Fatalf("ledger line has %d cells, want 5: %s", len(cells), line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(strings.ReplaceAll(cells[i], "\x00", "|"))
		}
		if cells[0] == "Claim" || strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows = append(rows, ledgerRow{cells[0], strings.ToLower(cells[1]), cells[2], cells[3], cells[4]})
	}
	if len(rows) == 0 {
		t.Fatal("the claims ledger has no rows")
	}
	return rows
}

// declaredTests maps each Test, Benchmark, Fuzz and Example function
// declared in a _test.go file of the repository to that file's source.
func declaredTests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = string(src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
