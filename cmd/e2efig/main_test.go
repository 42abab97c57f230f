package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFaultPlanExits checks that a bad -faults plan stops e2efig
// before any figure renders: exit status 2, a message naming the known
// plans, and nothing on stdout, whether one figure or all of them were
// asked for.
func TestUnknownFaultPlanExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "e2efig")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, fig := range []string{"faults", "all"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-fig", fig, "-faults", "bogus", "-dur", "10ms")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-fig %s -faults bogus: err %v, want exit status 2", fig, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-fig %s -faults bogus printed to stdout:\n%s", fig, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, `unknown -faults plan "bogus"`) || !strings.Contains(msg, "metadrop") || strings.Contains(msg, "goroutine") {
			t.Errorf("-fig %s -faults bogus: stderr %q, want the unknown plan and the known names", fig, msg)
		}
	}
}
