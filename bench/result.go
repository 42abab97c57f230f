package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metrics maps a metric name to its measured value. Units and bounds live in
// BENCHMARK.json, the one place that names every metric.
type metrics map[string]float64

// gates counts the operations a workload attempted and those that failed a
// correctness gate, with one note per kind of failure.
type gates struct {
	attempted, failed int64
	notes             []string
}

func (g *gates) add(n int64) { g.attempted += n }

// fail records n failed operations; the note is printed with the result so
// that a non-zero fail_share always says which gate tripped.
func (g *gates) fail(n int64, format string, args ...any) {
	if n <= 0 {
		n = 1
	}
	g.failed += n
	g.notes = append(g.notes, fmt.Sprintf(format, args...))
}

// check fails n operations unless ok holds.
func (g *gates) check(ok bool, n int64, format string, args ...any) {
	if !ok {
		g.fail(n, format, args...)
	}
}

func (g *gates) merge(o gates) {
	g.attempted += o.attempted
	g.failed += o.failed
	g.notes = append(g.notes, o.notes...)
}

// outcome is one run of one workload.
type outcome struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	E2E      metrics `json:"end_to_end"`
	Layer    metrics `json:"per_layer,omitempty"`
	// Pinned holds the simulator results that untraced runs compute anyway
	// and selfcheck requires to repeat (exactly, or nearly for allocation).
	Pinned    metrics  `json:"pinned,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	gates     gates
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuTime is the CPU this process has consumed so far, the speed probe's
// share left out.
func cpuTime() time.Duration {
	d, err := onCPU(os.Getpid())
	if err != nil {
		return 0 // /proc/self cannot vanish; a zero delta shows up as a zero metric
	}
	return d - time.Duration(probeSpent.Load())
}

// hostLayer reports the host's speed over a measured window: the median
// speed index of its slices as the cost of one probe sample, and whether the
// slices' indexes lie further apart than driftLimit. A note, not a gate: the
// index is what takes the host's speed out of the metrics.
func hostLayer(ms []metrics, into metrics) {
	idx := column(ms, "host.index")
	into["host.calib_ns"] = median(idx) * float64(probeRef)
	into["host.drift"] = 0
	if slices.Max(idx) > slices.Min(idx)*(1+driftLimit) {
		into["host.drift"] = 1
	}
	into["host.nproc"] = float64(runtime.NumCPU())
}

// driftLimit is how far apart the speed indexes of one window's slices may
// lie before host.drift reads 1.
const driftLimit = 0.10

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// column extracts one metric from every slice.
func column(slices []metrics, name string) []float64 {
	vs := make([]float64, 0, len(slices))
	for _, s := range slices {
		vs = append(vs, s[name])
	}
	return vs
}

// medianOf reduces slices to the median slice value of each named metric.
func medianOf(slices []metrics, into metrics, names ...string) {
	for _, n := range names {
		into[n] = median(column(slices, n))
	}
}

// overlay returns base with every metric of extra that base does not have.
func overlay(base, extra metrics) metrics {
	for k, v := range extra {
		if _, ok := base[k]; !ok {
			base[k] = v
		}
	}
	return base
}

// showSlices prints every slice's values to standard error: the way to see
// whether a run's noise sits inside it or between runs.
func showSlices(workload string, slices []metrics) {
	for i, s := range slices {
		fmt.Fprintf(os.Stderr, "bench: %s: slice %d:", workload, i)
		for _, n := range sortedNames(s) {
			fmt.Fprintf(os.Stderr, " %s=%.6g", n, s[n])
		}
		fmt.Fprintln(os.Stderr)
	}
}
