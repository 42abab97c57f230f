// Command e2efig regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	e2efig -fig all                 # everything (EXPERIMENTS.md content)
//	e2efig -fig 4a -dur 400ms       # one figure, longer runs
//	e2efig -fig 4a -parallel 1      # force serial execution of the sweep
//	e2efig -fig 4a -trace out.log   # also dump the raw ethtool-style log
//	e2efig -analyze out.log         # offline analysis of a dumped log
//	e2efig -spans out.jsonl         # span-traced run + estimator audit
//
// Sweeps fan their runs across -parallel worker goroutines (default:
// GOMAXPROCS). Each run draws from its own seeded RNG, so results are
// byte-identical regardless of the worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"e2ebatch/internal/faults"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/tcpsim"
	"e2ebatch/internal/trace"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "which figure to regenerate: "+strings.Join(figureNames(), ", ")+", all")
		faultPlan = flag.String("faults", "metadrop", "fault plan for -fig faults: "+strings.Join(faults.Names(), ", "))
		dur       = flag.Duration("dur", 300*time.Millisecond, "virtual duration of each run")
		seed      = flag.Int64("seed", 7, "simulation seed")
		rateList  = flag.String("rates", "", "comma-separated offered loads in RPS (default: figure-specific grid)")
		traceOut  = flag.String("trace", "", "dump a raw counter log for one 35 kRPS batching-off run to this file")
		spansOut  = flag.String("spans", "", "dump sampled request spans (JSONL) for one 35 kRPS tail-targeting dynamic run to this file, with the online estimator audit attached, and exit")
		spanEvery = flag.Uint64("spansample", 8, "with -spans: trace 1-in-N completed requests (1: every request)")
		analyze   = flag.String("analyze", "", "offline-analyze a counter log dumped with -trace and exit")
		batch     = flag.Int("syscall-batch", 4, "requests per send(2) in the hints experiment")
		par       = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for sweep runs (results are identical for any value)")
	)
	flag.Parse()

	if *par < 1 {
		fmt.Fprintf(os.Stderr, "e2efig: -parallel must be >= 1 (got %d)\n", *par)
		os.Exit(2)
	}
	figures.SetParallelism(*par)

	if *analyze != "" {
		if err := analyzeLog(*analyze); err != nil {
			fmt.Fprintln(os.Stderr, "e2efig:", err)
			os.Exit(1)
		}
		return
	}

	cal := figures.DefaultCalib()
	var rates []float64 // nil: each figure's own grid
	if *rateList != "" {
		for _, f := range strings.Split(*rateList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "e2efig: bad rate %q\n", f)
				os.Exit(2)
			}
			rates = append(rates, v)
		}
	}

	// The fault plan is checked before any figure renders, as -rates is:
	// `-fig all` would otherwise print thirteen tables before failing.
	if _, err := faults.Standard(*faultPlan, *dur); err != nil {
		fmt.Fprintf(os.Stderr, "e2efig: unknown -faults plan %q (known: %s)\n", *faultPlan, strings.Join(faults.Names(), ", "))
		os.Exit(2)
	}

	if *spansOut != "" {
		if err := dumpSpans(cal, *spansOut, *dur, *seed, *spanEvery); err != nil {
			fmt.Fprintln(os.Stderr, "e2efig:", err)
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" {
		if err := dumpTrace(cal, *traceOut, *dur, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "e2efig:", err)
			os.Exit(1)
		}
		fmt.Printf("raw counter log written to %s\n", *traceOut)
	}

	p := figures.Params{Calib: cal, Dur: *dur, Seed: *seed, Rates: rates, SyscallBatch: *batch, FaultPlan: *faultPlan}
	found := false
	for _, f := range figures.Figures() {
		if *fig != "all" && *fig != f.Name {
			continue
		}
		f.Render(os.Stdout, p)
		fmt.Println()
		found = true
	}
	if !found {
		fmt.Fprintf(os.Stderr, "e2efig: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// dumpSpans runs one tail-targeting dynamic run with the span tracer and
// estimator audit attached — the simulated deployment of the observability
// plane. Sampled completions become spans stamped with the estimate current
// at their decision tick; the auditor scores measured vs predicted and the
// engine consumes the verdict. Virtual time makes the dump reproducible
// byte for byte at a fixed seed.
func dumpSpans(cal figures.Calib, path string, dur time.Duration, seed int64, every uint64) error {
	tr := span.New(span.Config{
		Seed:        uint64(seed),
		SampleEvery: every,
		Ring:        span.NewRing(1, 4096),
		Audit:       span.NewAuditor(span.AuditConfig{ExpectTail: true}),
	})
	dyn := figures.DefaultDynamicSpec(500 * time.Microsecond)
	dyn.TailQuantile = 0.99
	dyn.Audit = tr.Auditor()
	var sp span.Span // the sim runs requests on one goroutine: reused scratch
	out := figures.Run(figures.RunSpec{
		Calib:    cal,
		Seed:     seed,
		Rate:     35000,
		Duration: dur,
		Dynamic:  dyn,
		Observer: tr,
		OnComplete: func(reqID uint64, scheduledNs, completedNs int64) {
			if !tr.Sampled(reqID) {
				return
			}
			tr.Begin(&sp, 0, 0, reqID, scheduledNs)
			tr.Finish(&sp, completedNs)
		},
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Ring().WriteJSONL(f, tr.Ring().Cap()); err != nil {
		return err
	}
	st := tr.Auditor().AuditStats()
	fmt.Printf("spans written to %s (%d in ring, sample 1-in-%d)\n", path, tr.Ring().Len(), every)
	fmt.Printf("audit: %d audited, %d tail-audited, p99 coverage %.3f, residual EWMA %v, drift ticks %d\n",
		st.Audited, st.TailAudited, st.Coverage, st.ResidualEWMA.Round(time.Microsecond), out.AuditDriftTicks)
	return nil
}

// dumpTrace produces a raw counter log the way the paper's prototype
// exports ethtool counters, for offline analysis with -analyze.
func dumpTrace(cal figures.Calib, path string, dur time.Duration, seed int64) error {
	out := figures.Run(figures.RunSpec{
		Calib:    cal,
		Seed:     seed,
		Rate:     35000,
		Duration: dur,
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = out.Log.WriteTo(f)
	return err
}

func analyzeLog(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.ReadLog(f)
	if err != nil {
		return err
	}
	fmt.Printf("log: %d samples spanning %v\n", len(log.Records), spanOf(log))
	for u := 0; u < tcpsim.NumUnits; u++ {
		est := log.Overall(tcpsim.Unit(u))
		if !est.Valid {
			fmt.Printf("%-8s: no valid estimate\n", tcpsim.Unit(u))
			continue
		}
		fmt.Printf("%-8s: latency %v  throughput %.0f/s\n",
			tcpsim.Unit(u), est.Latency.Round(time.Microsecond), est.Throughput)
	}
	return nil
}

func spanOf(l *trace.Log) time.Duration {
	if len(l.Records) < 2 {
		return 0
	}
	return l.Records[len(l.Records)-1].At.Sub(l.Records[0].At)
}

// figureNames lists the -fig values, in `-fig all` order.
func figureNames() []string {
	var names []string
	for _, f := range figures.Figures() {
		names = append(names, f.Name)
	}
	return names
}
