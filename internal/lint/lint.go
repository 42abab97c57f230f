// Package lint is e2ebatch's project-specific static analysis suite: a
// small analyzer framework (deliberately shaped after
// golang.org/x/tools/go/analysis, but built on the standard library alone so
// the repo stays dependency-free) plus eleven analyzers that mechanically
// enforce the concurrency, determinism, single-control-loop, shard-scheduling
// and hot-path allocation invariants the estimator's correctness and overhead
// budget depend on. The rules themselves live in one file per
// analyzer; DESIGN.md §8 "Enforced invariants" maps each rule to the paper
// algorithm or PR-1 guarantee it guards, and §13 covers the allocation
// discipline (hotpath, escapes).
//
// The suite is wired into tier-1 CI via cmd/e2elint and `make lint`: what
// used to be doc-comment contracts ("the plain State stays lock-free for
// single-goroutine hot paths", "per-run seeded determinism") is now checked
// on every build, the same way the paper insists on measured rather than
// assumed performance.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one project rule: a name (used in diagnostics and in
// //lint:ignore directives as "e2elint/<name>"), a short doc string, and the
// function that inspects one package (Run) or the whole loaded package set
// at once (RunModule — the shape the cross-package hot-path rules need,
// since an annotated function's callees may live in a different package).
// Exactly one of Run and RunModule is set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// A Pass carries one type-checked package through one analyzer. Analyzers
// read the syntax and type information and call Reportf; they must not
// mutate the package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: e2elint/%s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ModulePass carries the whole loaded package set through one
// module-level analyzer (Analyzer.RunModule). All packages share one
// token.FileSet, so positions from any package resolve uniformly.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position — the entry
// point for rules whose evidence comes from outside the fileset, e.g. the
// escapes analyzer parsing compiler diagnostics.
func (p *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order. cmd/e2elint runs exactly
// this set; the driver test pins the count so a new analyzer cannot be added
// without registering it here.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockSafety,
		DetRand,
		WallClock,
		SnapshotPair,
		MutexHold,
		EngineWiring,
		ObsDeterminism,
		HotPath,
		Escapes,
		PerTickerConn,
		SpanFinish,
	}
}

// Check runs every analyzer over one package — the single-package
// convenience over CheckPackages. Module-level analyzers see just this
// package, so their callee traversal stays within it.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return CheckPackages([]*Package{pkg}, analyzers)
}

// CheckPackages runs every analyzer over pkgs — per-package rules on each
// package, module-level rules once over the whole set — applies the
// //lint:ignore directives found in any package's files, and returns the
// surviving diagnostics plus any malformed-directive findings, sorted by
// position.
func CheckPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Pkgs: pkgs}
		if len(pkgs) > 0 {
			mp.Fset = pkgs[0].Fset
		}
		a.RunModule(mp)
		diags = append(diags, mp.diags...)
	}
	ignores := map[ignoreKey]bool{}
	var bad []Diagnostic
	for _, pkg := range pkgs {
		ig, b := collectIgnores(pkg)
		for k := range ig {
			ignores[k] = true
		}
		bad = append(bad, b...)
	}
	diags = append(filterIgnored(diags, ignores), bad...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignoreRe matches the escape hatch: //lint:ignore e2elint/<name> <reason>.
// The reason is mandatory; collectIgnores turns a bare directive into a
// diagnostic of its own so suppressions are always justified in-tree.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+e2elint/([a-z]+)\s*(.*)$`)

// ignoreKey identifies a suppressed (file, line, analyzer) triple. A
// directive suppresses findings on its own line; a directive that is the
// only thing on its line suppresses the line below it (the staticcheck
// convention).
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

func collectIgnores(pkg *Package) (map[ignoreKey]bool, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		// Directives always validate against the full registry, even when a
		// caller (e.g. a golden test) runs a single analyzer.
		known[a.Name] = true
	}
	ignores := map[ignoreKey]bool{}
	var bad []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Analyzer: "directive", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		code := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					report(pos, "malformed //lint:ignore directive; want //lint:ignore e2elint/<analyzer> <reason>")
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				if !known[name] {
					report(pos, "//lint:ignore names unknown analyzer e2elint/%s", name)
					continue
				}
				if reason == "" {
					report(pos, "//lint:ignore e2elint/%s is missing its reason string", name)
					continue
				}
				line := pos.Line
				if col, ok := code[line]; !ok || col >= pos.Column {
					// The directive is the first token on its line, so it
					// suppresses the line below (staticcheck convention);
					// trailing a statement, it suppresses that statement.
					line++
				}
				ignores[ignoreKey{pos.Filename, line, name}] = true
			}
		}
	}
	return ignores, bad
}

// codeLines maps each source line of f holding non-comment tokens to the
// smallest column such a token starts or ends at, distinguishing directives
// that trail code from directives standing on their own line.
func codeLines(fset *token.FileSet, f *ast.File) map[int]int {
	lines := map[int]int{}
	mark := func(p token.Pos) {
		if !p.IsValid() {
			return
		}
		pos := fset.Position(p)
		if col, ok := lines[pos.Line]; !ok || pos.Column < col {
			lines[pos.Line] = pos.Column
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		mark(n.Pos())
		mark(n.End() - 1)
		return true
	})
	return lines
}

func filterIgnored(diags []Diagnostic, ignores map[ignoreKey]bool) []Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept
}
