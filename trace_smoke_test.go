package e2ebatch_test

// End-to-end smoke test for the span tracing plane: build the real
// kvserver binary, run it with -obs and -spansample 1 (trace every
// request), drive a few requests through a real TCP client, then require
// /debug/spans to serve parseable JSONL spans covering them and
// /debug/trace to serve a loadable Chrome trace_event document; then check
// TTL expiry on the same binary. It runs in
// tier-1 via `make test` (alone: `go test -run TestTraceSmokeKvserver .`).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func TestTraceSmokeKvserver(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and sockets; skipped in short mode")
	}

	bin := filepath.Join(t.TempDir(), "kvserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kvserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kvserver: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0", "-spansample", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting kvserver: %v", err)
	}
	defer cmd.Process.Kill()

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
	go io.Copy(io.Discard, stdout)

	// A handful of real requests; -spansample 1 means every one of them
	// must surface as a span.
	const reqs = 5
	c, err := realtcp.Dial(srvAddr, 16)
	if err != nil {
		t.Fatalf("dialing kvserver: %v", err)
	}
	var buf []byte
	for i := 0; i < reqs; i++ {
		buf = resp.AppendCommand(buf[:0], []byte("SET"),
			[]byte(fmt.Sprintf("trace%d", i)), []byte("ok"))
		if err := c.Send(buf); err != nil {
			t.Fatalf("sending SET %d: %v", i, err)
		}
	}
	for i := 0; c.Outstanding() > 0; i++ {
		if i > 2000 {
			t.Fatal("SETs never completed")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", obsAddr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}

	// /debug/spans: JSONL, one well-formed span per line, covering the
	// requests just served.
	var spans []span.Span
	lines := bufio.NewScanner(bytes.NewReader(get("/debug/spans?n=64")))
	for lines.Scan() {
		var sp span.Span
		if err := json.Unmarshal(lines.Bytes(), &sp); err != nil {
			t.Fatalf("/debug/spans line %q: %v", lines.Text(), err)
		}
		if sp.AckNs < sp.EnqueueNs {
			t.Errorf("span %d finished before it began: %+v", sp.ReqID, sp)
		}
		spans = append(spans, sp)
	}
	// The span ids and the requests-served series are one counter: the
	// requests served so far are exactly ids 0..reqs-1, which is how a
	// client pairs its requests with the server's spans.
	if len(spans) != reqs {
		t.Fatalf("/debug/spans returned %d spans, want the %d requests served", len(spans), reqs)
	}
	for i, sp := range spans {
		if sp.ReqID != uint64(i) {
			t.Fatalf("span %d has id %d, want ids 0..%d in order: %+v", i, sp.ReqID, reqs-1, spans)
		}
	}
	if metrics := string(get("/metrics")); !strings.Contains(metrics, fmt.Sprintf("e2e_server_requests_sum %d\n", reqs)) {
		t.Fatalf("/metrics should count the %d SETs:\n%s", reqs, metrics)
	}

	// /debug/trace: one valid Chrome trace_event document over the same
	// spans.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/trace?n=64"), &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < reqs {
		t.Fatalf("/debug/trace holds %d events, want at least %d", len(doc.TraceEvents), reqs)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("trace event %+v: want complete (X) events with non-negative durations", ev)
		}
	}

	// TTL expiry on the real binary: a key SET with PX 50 is gone 100 ms
	// later.
	conn, err := net.Dial("tcp", srvAddr)
	if err != nil {
		t.Fatalf("dialing kvserver: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	replies := bufio.NewReader(conn)
	roundTrip := func(args ...string) string {
		t.Helper()
		if _, err := conn.Write(resp.Command(args...)); err != nil {
			t.Fatalf("sending %q: %v", args, err)
		}
		line, err := replies.ReadString('\n')
		if err != nil {
			t.Fatalf("reply to %q: %v", args, err)
		}
		return line
	}
	if got := roundTrip("SET", "t", "v", "PX", "50"); got != "+OK\r\n" {
		t.Fatalf("SET t v PX 50 = %q", got)
	}
	time.Sleep(100 * time.Millisecond)
	if got := roundTrip("GET", "t"); got != "$-1\r\n" {
		t.Fatalf("GET t 100 ms after SET t v PX 50 = %q, want $-1", got)
	}

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
