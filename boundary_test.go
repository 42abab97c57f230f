package e2ebatch_test

// Substrate boundary (tier-1 via `make test`; alone: `go test -run
// TestSubstrateBoundary .`): the control loop runs on the simulator and on
// real sockets, and the import graph keeps the two apart. The socket
// binaries link no simulator package, and the loop packages link no
// substrate at all, so a sim-vs-real comparison always runs the same loop.

import (
	"os/exec"
	"strings"
	"testing"
)

const mod = "e2ebatch/"

// simulator holds the packages only the simulated substrate may link.
var simulator = []string{
	"internal/sim", "internal/tcpsim", "internal/netem", "internal/cpumodel", "internal/faults",
}

// boundaries maps each guarded package to the packages it must not reach,
// directly or transitively.
var boundaries = map[string][]string{
	"cmd/kvserver":    simulator,
	"cmd/kvload":      simulator,
	"internal/qstate": substrates,
	"internal/core":   substrates,
	"internal/engine": substrates,
	"internal/policy": substrates,
	"internal/hints":  substrates,
}

var substrates = append([]string{"internal/kv", "internal/realtcp", "internal/shard"}, simulator...)

func TestSubstrateBoundary(t *testing.T) {
	args := []string{"list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`}
	for pkg := range boundaries {
		args = append(args, "./"+pkg)
	}
	out, err := exec.Command("go", args...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		t.Fatalf("go list: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg := strings.TrimPrefix(fields[0], mod)
		deps := make(map[string]bool, len(fields)-1)
		for _, d := range fields[1:] {
			deps[strings.TrimPrefix(d, mod)] = true
		}
		for _, banned := range boundaries[pkg] {
			if deps[banned] {
				t.Errorf("%s links %s", pkg, banned)
			}
		}
		seen++
	}
	if seen != len(boundaries) {
		t.Fatalf("go list reported %d packages, want %d", seen, len(boundaries))
	}
}
