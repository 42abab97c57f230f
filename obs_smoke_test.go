package e2ebatch_test

// End-to-end smoke test for the PR-8 telemetry plane: build the real
// kvserver binary, run it with -obs on an ephemeral port, drive one
// request through a real TCP client, scrape /metrics and /debug, then
// SIGINT it and require a clean exit. It runs in tier-1 via `make test`
// (alone: `go test -run TestObsSmokeKvserver .`); it needs no curl — the
// scrape is net/http.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func TestObsSmokeKvserver(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and sockets; skipped in short mode")
	}

	bin := filepath.Join(t.TempDir(), "kvserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kvserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kvserver: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting kvserver: %v", err)
	}
	defer cmd.Process.Kill()

	// The binary announces both listeners on stdout; -addr/-obs :0 means
	// the test learns the real ports from these lines.
	var obsAddr, srvAddr string
	sc := bufio.NewScanner(stdout)
	for obsAddr == "" || srvAddr == "" {
		if !sc.Scan() {
			break
		}
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "obs" {
			obsAddr = f[3]
		} else if len(f) >= 4 && f[0] == "kvserver" {
			srvAddr = f[3]
		}
	}
	if obsAddr == "" || srvAddr == "" {
		t.Fatalf("kvserver never announced its listeners (obs=%q srv=%q)", obsAddr, srvAddr)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// One real request so the latency summary has a sample.
	c, err := realtcp.Dial(srvAddr, 16)
	if err != nil {
		t.Fatalf("dialing kvserver: %v", err)
	}
	if err := c.Send(resp.AppendCommand(nil, []byte("SET"), []byte("smoke"), []byte("ok"))); err != nil {
		t.Fatalf("sending SET: %v", err)
	}
	for i := 0; c.Outstanding() > 0; i++ {
		if i > 2000 {
			t.Fatal("SET never completed")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", obsAddr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	// A server exports three families: the latency summary, the requests
	// served and the open connections. It runs no control loop, so no
	// engine series.
	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE e2e_request_latency_seconds summary",
		`e2e_request_latency_seconds{quantile="0.99"}`,
		"e2e_request_latency_seconds_count 1\n",
		"e2e_server_requests_sum 1\n",
		"# TYPE e2e_server_conns_sum gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics is missing %q;\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "e2e_engine_") {
		t.Errorf("/metrics exports engine series from a server:\n%s", metrics)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, `"e2e_server_requests_sum": 1`) {
		t.Errorf("/debug/vars should count the SET: %s", vars)
	}
	// A pure server runs no control loop, so the decision ring is empty —
	// but the endpoint must answer.
	if body := get("/debug/decisions?n=5"); strings.TrimSpace(body) != "" {
		t.Errorf("server-side decision ring should be empty, got %q", body)
	}

	// Clean shutdown on SIGINT: Serve returns nil after Close, exit 0.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signaling: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kvserver exited uncleanly on SIGINT: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("kvserver did not exit within 10s of SIGINT")
	}
}
