package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("e2e_test_ticks_total", "Ticks.")
	c.Add(3)
	g := reg.Gauge("e2e_test_staleness_seconds", "Age.")
	g.Set(0.25)
	reg.GaugeFunc("e2e_test_resets", "Resets.", func() float64 { return 7 })
	lf := reg.Counter("e2e_test_faults_total", "Faults.", Label{"kind", "loss"})
	lf.Inc()
	reg.Counter("e2e_test_faults_total", "Faults.", Label{"kind", "stall"}).Add(2)
	l := reg.Latencies("e2e_test_latency_seconds", "Latency.")
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP e2e_test_ticks_total Ticks.\n# TYPE e2e_test_ticks_total counter\ne2e_test_ticks_total 3\n",
		"# TYPE e2e_test_staleness_seconds gauge\ne2e_test_staleness_seconds 0.25\n",
		"e2e_test_resets 7\n",
		`e2e_test_faults_total{kind="loss"} 1`,
		`e2e_test_faults_total{kind="stall"} 2`,
		"# TYPE e2e_test_latency_seconds summary\n",
		`e2e_test_latency_seconds{quantile="0.5"} `,
		`e2e_test_latency_seconds{quantile="0.99"} `,
		"e2e_test_latency_seconds_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Every non-comment line must be "name{labels} value" with a parseable
	// value — the shape Prometheus's text parser accepts.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRegistryReuseAndTypeClash(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.")
	b := reg.Counter("x_total", "X.")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	l1 := reg.Counter("y_total", "Y.", Label{"k", "1"})
	l2 := reg.Counter("y_total", "Y.", Label{"k", "2"})
	if l1 == l2 {
		t.Fatal("distinct labels must return distinct children")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as gauge must panic")
		}
	}()
	reg.Gauge("x_total", "X.")
}

// Labels render sorted by key, whatever order the caller passes them in,
// in both the Prometheus text and the vars JSON.
func TestRegistryTwoLabelRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("e2e_test_conns_total", "Conns.", Label{"shard", "0"}, Label{"role", "fleet"}).Add(9)
	r.Counter("e2e_test_conns_total", "Conns.", Label{"role", "fleet"}, Label{"shard", "1"}).Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`e2e_test_conns_total{role="fleet",shard="0"} 9`,
		`e2e_test_conns_total{role="fleet",shard="1"} 2`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("rendering missing %q in:\n%s", want, b.String())
		}
	}

	b.Reset()
	if err := r.WriteVars(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"e2e_test_conns_total{role=\"fleet\",shard=\"0\"}": 9`,
		`"e2e_test_conns_total{role=\"fleet\",shard=\"1\"}": 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("vars missing %q in:\n%s", want, b.String())
		}
	}
}

func TestVarsIsValidJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.").Add(5)
	reg.Gauge("b", "B.").Set(1.5)
	reg.Latencies("c_seconds", "C.").Record(time.Millisecond)
	var b strings.Builder
	if err := reg.WriteVars(&b); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("vars output is not JSON: %v\n%s", err, b.String())
	}
	if m["a_total"] != float64(5) {
		t.Errorf("a_total = %v, want 5", m["a_total"])
	}
	if m["c_seconds_count"] != float64(1) {
		t.Errorf("c_seconds_count = %v, want 1", m["c_seconds_count"])
	}
}

func TestConcurrentMetricUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("races_total", "R.")
	g := reg.Gauge("g", "G.")
	l := reg.Latencies("l_seconds", "L.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				l.Record(time.Duration(i))
				// Concurrent registration of the same family must be
				// safe too.
				reg.Counter("races_total", "R.")
			}
		}(w)
	}
	var scr sync.WaitGroup
	scr.Add(1)
	go func() {
		defer scr.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			reg.WritePrometheus(&b)
			reg.WriteVars(&b)
		}
	}()
	wg.Wait()
	scr.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := l.Snapshot()
	if got := h.Count(); got != 8000 {
		t.Fatalf("latency count = %d, want 8000", got)
	}
}
