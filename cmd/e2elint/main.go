// Command e2elint runs e2ebatch's project-specific static analysis suite —
// the eleven analyzers in internal/lint that enforce the concurrency,
// determinism, shard-scheduling and hot-path allocation invariants the
// estimator's correctness and overhead budget depend on (see DESIGN.md
// "Enforced invariants" and "Hot-path allocation discipline").
//
// Usage:
//
//	e2elint [-list] [-escapes] [packages or directories]
//
// Arguments default to ./... and may be go package patterns or plain
// directories (directories are analyzed as loose packages, which is how the
// analyzer testdata exercises seeded violations). Findings print as
// file:line:col: e2elint/<analyzer>: message; the exit status is 1 when any
// finding survives, 2 on a usage or load error, 0 on a clean tree.
//
// The default run executes every pure go/types analyzer. -escapes instead
// runs only the compiler-backed escapes gate, which rebuilds the packages
// containing //e2e:hotpath functions with -gcflags=-m and fails when escape
// analysis moves a hot function's locals to the heap; it is split out
// because it shells out to the gc compiler (make tier1 runs both).
//
// A finding can be suppressed with a justified escape hatch on or above the
// offending line:
//
//	//lint:ignore e2elint/<analyzer> <reason>
//
// The driver verifies the reason string is present; a bare directive is
// itself reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"e2ebatch/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	flags := flag.NewFlagSet("e2elint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	escapes := flags.Bool("escapes", false,
		"run only the compiler-backed escapes gate (go build -gcflags=-m) over //e2e:hotpath functions")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "e2elint/%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	// The escapes analyzer shells out to the compiler, so it runs under its
	// own flag; everything else is a pure in-process go/types pass.
	selected := analyzers[:0:0]
	for _, a := range analyzers {
		if (a.Name == "escapes") == *escapes {
			selected = append(selected, a)
		}
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var pkgs []*lint.Package
	var globs []string
	for _, pat := range patterns {
		if st, err := os.Stat(pat); err == nil && st.IsDir() {
			pkg, err := loader.LoadDir(pat)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pkgs = append(pkgs, pkg)
			continue
		}
		globs = append(globs, pat)
	}
	if len(globs) > 0 {
		loaded, err := loader.Load(globs...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	// One CheckPackages call over the whole set: the module-level analyzers
	// (hotpath, escapes) need every package at once so cross-package callee
	// edges resolve.
	findings := 0
	for _, d := range lint.CheckPackages(pkgs, selected) {
		findings++
		fmt.Fprintln(stdout, d)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "e2elint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
