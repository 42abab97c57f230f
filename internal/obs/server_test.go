package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/obs/span"
)

func debugGet(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.String(), rw.Result().Header
}

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("e2e_engine_ticks_total", "Ticks.").Add(9)
	reg.Latencies("e2e_request_latency_seconds", "Latency.").Record(time.Millisecond)
	ring := NewRing(8)
	for i, mode := range []string{"batch-on", "batch-off", "batch-off"} {
		rec := DecisionRecord{At: int64(i + 1), Mode: mode}
		ring.Push(0, &rec, &rec.Seq)
	}
	h := NewDebugServer(reg, ring).Handler()

	code, body, hdr := debugGet(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, "e2e_engine_ticks_total 9") {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}

	code, body, _ = debugGet(t, h, "/debug/decisions?n=2")
	if code != 200 {
		t.Fatalf("/debug/decisions = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"at_ns":2`) || !strings.Contains(lines[1], `"at_ns":3`) {
		t.Fatalf("/debug/decisions?n=2 = %q, want the last 2 records oldest-first", body)
	}
	if code, _, _ = debugGet(t, h, "/debug/decisions?n=bogus"); code != 400 {
		t.Errorf("bad n should 400, got %d", code)
	}

	code, body, _ = debugGet(t, h, "/debug/vars")
	if code != 200 || !strings.Contains(body, `"e2e_engine_ticks_total": 9`) {
		t.Fatalf("/debug/vars = %d\n%s", code, body)
	}

	code, body, _ = debugGet(t, h, "/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestDebugSpanEndpoints(t *testing.T) {
	d := NewDebugServer(NewRegistry(), nil)
	h := d.Handler()
	if code, body, _ := debugGet(t, h, "/debug/spans"); code != 200 || body != "" {
		t.Fatalf("/debug/spans without a ring = %d %q, want 200 and an empty body", code, body)
	}
	if code, body, _ := debugGet(t, h, "/debug/trace"); code != 200 || body != `{"traceEvents":[]}` {
		t.Fatalf("/debug/trace without a ring = %d %q", code, body)
	}

	ring := span.NewRing(1, 8)
	tr := span.New(span.Config{SampleEvery: 1, Ring: ring})
	for id := uint64(0); id < 3; id++ {
		var sp span.Span
		tr.Begin(&sp, 0, 0, id, int64(id)*1000)
		tr.Finish(&sp, int64(id)*1000+500)
	}
	d.SetSpans(ring)
	h = d.Handler()
	code, body, _ := debugGet(t, h, "/debug/spans?n=2")
	if lines := strings.Split(strings.TrimSpace(body), "\n"); code != 200 || len(lines) != 2 {
		t.Fatalf("/debug/spans?n=2 = %d %q, want 2 JSONL lines", code, body)
	}
	code, body, _ = debugGet(t, h, "/debug/trace")
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); code != 200 || err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("/debug/trace = %d %q (%v), want a trace document of 3 spans", code, body, err)
	}
	if code, _, _ = debugGet(t, h, "/debug/spans?n=-1"); code != 400 {
		t.Errorf("/debug/spans?n=-1 = %d, want 400", code)
	}
}

func TestDebugServerStartServeClose(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "Up.").Inc()
	srv := NewDebugServer(reg, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr().String() != addr.String() {
		t.Errorf("Addr() = %v, Start returned %v", srv.Addr(), addr)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "up_total 1") {
		t.Fatalf("served metrics = %q", b)
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start should fail")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}
