// Package obs is the runtime telemetry plane: a typed metric registry
// exported in Prometheus text exposition format, a lock-free-read ring of
// per-tick engine decision records, and a debug HTTP server mounting
// /metrics, /debug/decisions, /debug/vars and net/http/pprof.
//
// The paper's thesis is that batching decisions must be driven by measured
// end-to-end estimates; this package applies the same standard to the
// reproduction itself. Production estimators in this space treat the
// estimate pipeline as an observable object (PAPERS.md: Lancet's latency
// histograms, Zhao et al.'s continuous flow-level estimate streams), and
// closed-loop controllers are exactly where silent drift goes unnoticed
// (Lübben & Fidler). Everything here is stdlib-only.
//
// Determinism contract: nothing in the simulation's golden paths may touch
// this package. The engine exports telemetry through the engine.Observer
// seam only, a nil observer costs nothing, and the determinism analyzer
// (DESIGN.md §8) mechanically forbids internal/sim, internal/tcpsim,
// internal/figures, internal/analytic and internal/faults from reaching in.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"e2ebatch/internal/metrics"
)

// A Label is one constant name/value pair attached to a metric instance.
// Metrics sharing a family name but differing in labels are distinct
// children of one family, exactly as in Prometheus.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Latencies wraps metrics.Histogram with a mutex so concurrent recorders
// (request handlers, the tick goroutine) can share it, and exports as a
// Prometheus summary: quantiles in seconds plus _sum and _count.
type Latencies struct {
	mu sync.Mutex
	h  metrics.Histogram
}

// Record adds one sample.
func (l *Latencies) Record(d time.Duration) {
	l.mu.Lock()
	l.h.Record(d)
	l.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (l *Latencies) Snapshot() metrics.Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h
}

// summaryQuantiles are the quantiles every Latencies family exports.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 1}

// metric is anything a family can hold.
type metric interface{}

// child is one labeled instance inside a family.
type child struct {
	labels string // rendered {k="v",...} or ""
	m      metric
}

// family is one exported metric family: a name, help, type and children.
type family struct {
	name, help, typ string
	children        []*child
}

// Registry holds metric families in registration order and renders them in
// Prometheus text exposition format (version 0.0.4). Registration takes a
// lock; reads of the registered metrics themselves are atomic and lock-free
// (Counter/Gauge) or histogram-mutexed (Latencies).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register resolves (or creates) the family and returns the child for the
// label set, creating it with mk when absent. A name reused with a
// different metric type panics — that is a wiring bug, not a runtime
// condition.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() metric) metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	for _, c := range f.children {
		if c.labels == ls {
			return c.m
		}
	}
	c := &child{labels: ls, m: mk()}
	f.children = append(f.children, c)
	return c.m
}

// Counter registers (or returns the existing) counter name with the given
// constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels, func() metric { return &Gauge{} }).(*Gauge)
}

// gaugeFunc samples a callback at scrape time.
type gaugeFunc struct {
	fn func() float64
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// scrape — for bridging counters owned elsewhere (e.g. reconnect totals)
// without double bookkeeping. fn must be safe to call from the scrape
// goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func() metric { return gaugeFunc{fn} })
}

// Latencies registers (or returns the existing) latency summary.
func (r *Registry) Latencies(name, help string, labels ...Label) *Latencies {
	return r.register(name, help, "summary", labels, func() metric { return &Latencies{} }).(*Latencies)
}

// snapshotFamilies copies the family list under the lock so rendering can
// proceed without holding it (GaugeFunc callbacks may take their own
// locks).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		cp := &family{name: f.name, help: f.help, typ: f.typ}
		cp.children = append(cp.children, f.children...)
		out = append(out, cp)
	}
	return out
}

// WritePrometheus renders every family in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, c := range f.children {
			if err := writeChild(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch m := c.m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, c.labels, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, c.labels, formatFloat(m.Value()))
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, c.labels, formatFloat(m.fn()))
		return err
	case shardedCounterChild:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, c.labels, m.c.ShardValue(m.shard))
		return err
	case shardedGaugeChild:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, c.labels, m.g.ShardValue(m.shard))
		return err
	case *Latencies:
		h := m.Snapshot()
		for _, q := range summaryQuantiles {
			ql := addLabel(c.labels, Label{"quantile", trimFloat(q)})
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, ql, formatFloat(h.Quantile(q).Seconds())); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, c.labels,
			formatFloat(h.Sum().Seconds())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, c.labels, h.Count())
		return err
	}
	return fmt.Errorf("obs: unknown metric kind %T", c.m)
}

// WriteVars renders the registry as one flat JSON object keyed by
// "name{labels}" — the /debug/vars view. Summaries expand to their
// quantile, sum and count series like the Prometheus rendering.
func (r *Registry) WriteVars(w io.Writer) error {
	type kv struct {
		k string
		v string
	}
	var pairs []kv
	for _, f := range r.snapshotFamilies() {
		for _, c := range f.children {
			switch m := c.m.(type) {
			case *Counter:
				pairs = append(pairs, kv{f.name + c.labels, strconv.FormatUint(m.Value(), 10)})
			case *Gauge:
				pairs = append(pairs, kv{f.name + c.labels, jsonFloat(m.Value())})
			case gaugeFunc:
				pairs = append(pairs, kv{f.name + c.labels, jsonFloat(m.fn())})
			case shardedCounterChild:
				pairs = append(pairs, kv{f.name + c.labels, strconv.FormatUint(m.c.ShardValue(m.shard), 10)})
			case shardedGaugeChild:
				pairs = append(pairs, kv{f.name + c.labels, strconv.FormatInt(m.g.ShardValue(m.shard), 10)})
			case *Latencies:
				h := m.Snapshot()
				for _, q := range summaryQuantiles {
					pairs = append(pairs, kv{
						f.name + addLabel(c.labels, Label{"quantile", trimFloat(q)}),
						jsonFloat(h.Quantile(q).Seconds())})
				}
				pairs = append(pairs, kv{f.name + "_sum" + c.labels, jsonFloat(h.Sum().Seconds())})
				pairs = append(pairs, kv{f.name + "_count" + c.labels, strconv.FormatUint(h.Count(), 10)})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, p := range pairs {
		sep := ",\n "
		if i == 0 {
			sep = "\n "
		}
		if _, err := fmt.Fprintf(w, "%s%s: %s", sep, strconv.Quote(p.k), p.v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// renderLabels renders a label set as {k="v",...} with keys sorted, or ""
// for none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", l.Key, strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel splices one more label into an already-rendered label set.
func addLabel(rendered string, l Label) string {
	extra := fmt.Sprintf("%s=%s", l.Key, strconv.Quote(l.Value))
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float for the exposition format.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonFloat renders a float for the vars JSON (JSON has no NaN/Inf).
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// trimFloat renders a quantile label value ("0.5", "0.99", "1").
func trimFloat(q float64) string {
	return strconv.FormatFloat(q, 'g', -1, 64)
}
