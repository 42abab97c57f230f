// Command bench is the repository's benchmark: five workloads over the
// simulator and over a real kvserver on loopback, each checked for correct
// output, each reporting end-to-end metrics from an untraced run and
// per-layer metrics from a traced run plus a replay of the workload's own
// request stream through every layer in isolation. See README.md.
//
//	bash bench/run.sh -workload sim-set16k -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh                      # every workload, untraced
//	bash bench/run.sh -trace 1 -out a.json # per-layer metrics too, archived
//	bash bench/run.sh selfcheck            # two untraced suites must agree
//	bash bench/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// options is what every workload needs to know about one invocation.
type options struct {
	root    string // the checkout: BENCHMARK.json, cmd/, internal/
	binDir  string // where kvserver and kvload are built: bench/out/bin
	outDir  string // where trace files go: bench/out
	seed    uint64
	seconds float64
	trace   bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		root     = fs.String("root", "", "checkout root (default: the parent of the directory holding this program's source)")
		workload = fs.String("workload", "all", "workload name, or all")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same request streams")
		seconds  = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run, layer replay and per-layer metrics; 0: end-to-end metrics only")
		out      = fs.String("out", "", "also write every result as one JSON document to this file")
		runs     = fs.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *root == "" {
		*root = findRoot()
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	opt := options{
		root:    *root,
		binDir:  filepath.Join(*root, "bench", "out", "bin"),
		outDir:  filepath.Join(*root, "bench", "out"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace != 0,
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	stopOnSignal()
	if err := placeLoad(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	switch fs.Arg(0) {
	case "selfcheck":
		return selfcheck(spec, opt)
	case "compare":
		if fs.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
			return 2
		}
		return compareFiles(spec, fs.Arg(1), fs.Arg(2))
	case "":
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown command %q\n", fs.Arg(0))
		return 2
	}

	names := []string{*workload}
	if *workload == "all" {
		names = spec.workloadNames()
	}
	var results []outcome
	code := 0
	for _, name := range names {
		if !spec.hasWorkload(name) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (BENCHMARK.json names %v)\n", name, spec.workloadNames())
			return 2
		}
		for r := 0; r < *runs; r++ {
			ropt := opt
			ropt.seed += uint64(r)
			o, err := runWorkload(spec, name, ropt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			results = append(results, o)
			if !printOutcome(spec, o) {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// findRoot locates the checkout from the working directory: the driver
// starts the benchmark at the root, `go run -C bench` inside bench/.
func findRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return wd
}

// stopOnSignal makes an interrupted benchmark take its children with it.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
}

// runWorkload measures one workload: untraced for the end-to-end metrics
// and, with -trace 1, a second traced run and the layer replay.
func runWorkload(spec *benchSpec, name string, opt options) (outcome, error) {
	o, err := measure(name, opt)
	if err != nil {
		return o, err
	}
	if extra := spec.undeclared(o.E2E, o.Layer); len(extra) > 0 {
		return o, fmt.Errorf("metrics %v are measured but not named in BENCHMARK.json", extra)
	}
	for _, m := range spec.EndToEnd {
		if v, ok := o.E2E[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return o, fmt.Errorf("end-to-end metric %s reads %v: every one must be measured and positive", m.Name, v)
		}
	}
	if o.Layer != nil {
		spec.fillLayer(o.Layer)
	}
	return o, nil
}

// measure runs one workload once.
func measure(name string, opt options) (outcome, error) {
	o := outcome{Workload: name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace}
	var err error
	switch {
	case simByName(name) != nil:
		err = measureSim(*simByName(name), opt, &o)
	case sockByName(name) != nil:
		err = measureSock(*sockByName(name), opt, &o)
	case name == kvloadCtl:
		err = measureKvload(opt, &o)
	default:
		err = fmt.Errorf("no implementation for workload %q", name)
	}
	if err != nil {
		return o, err
	}
	o.Attempted, o.Failed, o.Notes = o.gates.attempted, o.gates.failed, o.gates.notes
	return o, nil
}

func simByName(name string) *simWorkload {
	for i := range simWorkloads {
		if simWorkloads[i].name == name {
			return &simWorkloads[i]
		}
	}
	return nil
}

// measureSim runs a simulator workload untraced and, when asked, traced.
func measureSim(w simWorkload, opt options, o *outcome) error {
	e2e, layer, g := runSim(w, opt, nil)
	o.E2E, o.gates, o.Pinned = e2e, g, metrics{}
	for _, n := range append(exactInSelfcheck, nearInSelfcheck...) {
		o.Pinned[n] = layer[n]
	}
	if !opt.trace {
		return nil
	}
	var spans spanLog
	te2e, tlayer, tg := runSim(w, opt, &spans)
	o.gates.merge(tg)
	// Every number reported comes from the untraced run; the traced one
	// supplies the spans, and its counts must be the same: attaching the
	// hooks may cost time but must not change what the simulator does.
	for _, k := range []string{"tcpsim.segments_per_req", "engine.ticks", "policy.switches"} {
		o.gates.check(layer[k] == tlayer[k], 1, "sim: %s differs between traced and untraced run: %v vs %v", k, layer[k], tlayer[k])
	}
	layer["trace.overhead_pct"] = 100 * (e2e["req_per_s"] - te2e["req_per_s"]) / e2e["req_per_s"]
	replaySim(w, opt, layer)
	o.Layer = layer
	return spans.write(opt.outDir, w.name)
}

// printOutcome prints every metric by name with its unit, then the one JSON
// line the driver reads. It reports whether the run was correct.
func printOutcome(spec *benchSpec, o outcome) bool {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%v\n", o.Workload, o.Seed, o.Seconds, o.Traced)
	for _, m := range spec.EndToEnd {
		fmt.Printf("%-34s %16.6g %-6s (end to end, bound %g)\n", m.Name, o.E2E[m.Name], m.Unit, m.Bound)
	}
	fmt.Printf("%-34s %16.6g %-6s (%d failed of %d)\n", "fail_share", failShare(o), "ratio", o.Failed, o.Attempted)
	if o.Layer != nil {
		for _, m := range spec.PerLayer {
			fmt.Printf("%-34s %16.6g %s\n", m.Name, o.Layer[m.Name], m.Unit)
		}
	}
	for _, n := range o.Notes {
		fmt.Printf("FAILED GATE: %s\n", n)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.Failed == 0 && o.Attempted > 0, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: map[string]value{}}
	if o.Traced {
		for _, m := range spec.PerLayer {
			line.Metrics[m.Name] = value{o.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			line.Metrics[m.Name] = value{o.E2E[m.Name], m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(b))
	return line.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func failShare(o outcome) float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}
