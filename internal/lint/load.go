package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("testdata/<dir>" for loose directories)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// loose marks a directory loaded outside the go tool's package graph
	// (LoadDir testdata); moduleDir is the module root it resolved
	// against. The escapes analyzer uses both to rebuild the package with
	// the real compiler: loose packages compile by directory, module
	// packages by import path.
	loose     bool
	moduleDir string
}

// A Loader resolves and type-checks packages using the go toolchain's build
// cache for dependency export data, so the suite needs nothing beyond the
// standard library: one `go list -export -deps -json` run compiles (or
// reuses) every dependency and tells us where its export data lives, and
// go/types does the rest from source.
//
// Only non-test GoFiles are analyzed. Tests deliberately use wall clocks,
// ad-hoc RNGs and cross-tracker fixtures to provoke the very conditions the
// analyzers forbid in production code.
type Loader struct {
	ModuleDir string // module root; "" means the module containing the cwd

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	listed  []*listPackage    // module packages from the last Load call
	imp     types.Importer
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// NewLoader returns a loader rooted at the module containing dir (or the
// current directory when dir is empty).
func NewLoader(dir string) (*Loader, error) {
	out, err := goTool(dir, "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, fmt.Errorf("lint: locating module root: %w", err)
	}
	root := strings.TrimSpace(string(out))
	if root == "" {
		return nil, fmt.Errorf("lint: no module found from %q", dir)
	}
	return &Loader{ModuleDir: root, fset: token.NewFileSet()}, nil
}

// Load lists patterns (e.g. "./..."), builds the export-data map for the
// full dependency closure, and returns the matched module packages
// type-checked from source in dependency-safe order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if err := l.list(patterns); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range l.listed {
		if lp.Standard || lp.Module == nil || len(lp.GoFiles) == 0 {
			continue
		}
		match := false
		for _, pat := range patterns {
			if matchesPattern(lp, pat, l.ModuleDir) {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, absJoin(lp.Dir, lp.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks the non-test .go files in dir that the
// default build context selects (their `//go:build` lines and GOOS/GOARCH
// name suffixes hold) as one loose package — the entry point for analyzer
// testdata, which lives in `testdata/` directories the go tool refuses to
// enumerate. Imports resolve against the module's dependency closure, so
// testdata may import any package the module itself (transitively) uses.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	return l.LoadDirAs(dir, "")
}

// LoadDirAs is LoadDir with an assumed import path, letting golden tests
// exercise package-scoped rules (e.g. determinism's restricted-package list)
// from a testdata directory standing in for the real package.
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	if l.exports == nil {
		if err := l.list([]string{"./..."}); err != nil {
			return nil, err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	if asPath == "" {
		asPath = "testdata/" + filepath.Base(dir)
	}
	pkg, err := l.check(asPath, dir, files)
	if err != nil {
		return nil, err
	}
	pkg.loose = true
	return pkg, nil
}

// list runs go list once and caches the export map plus the module packages.
func (l *Loader) list(patterns []string) error {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Module"}, patterns...)
	out, err := goTool(l.ModuleDir, args...)
	if err != nil {
		return fmt.Errorf("lint: go list: %w", err)
	}
	l.exports = map[string]string{}
	l.listed = nil
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
		l.listed = append(l.listed, &lp)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (is it imported by the module?)", path)
		}
		return os.Open(f)
	}
	l.imp = importer.ForCompiler(l.fset, "gc", lookup)
	return nil
}

// check parses files and type-checks them as package path.
func (l *Loader) check(path, dir string, files []string) (*Package, error) {
	var astFiles []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		astFiles = append(astFiles, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: astFiles,
		Types: tpkg, Info: info, moduleDir: l.ModuleDir}, nil
}

// matchesPattern reports whether a listed package (part of -deps output)
// was itself named by pattern, as opposed to being pulled in as a
// dependency.
func matchesPattern(lp *listPackage, pattern, moduleDir string) bool {
	if pattern == lp.ImportPath {
		return true
	}
	base, recursive := strings.CutSuffix(pattern, "/...")
	if base == "." || base == "./" {
		base = ""
	}
	base = strings.TrimPrefix(base, "./")
	dir := filepath.Join(moduleDir, filepath.FromSlash(base))
	if recursive {
		rel, err := filepath.Rel(dir, lp.Dir)
		return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
	}
	return lp.Dir == dir
}

func absJoin(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func goTool(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}
