// Command fidelity runs the model-fidelity harness: it replays every
// workload-zoo member through the simulator once and prints two
// deterministic FINDINGS-style reports with numbered-hypothesis verdicts,
// both scored from those runs. The mean report scores the measured
// estimator, the analytic tandem model, and a naive byte baseline against
// sim ground truth (H1–H5); the tail report scores p50/p90/p99/p999 of the
// composed histogram estimator, the closed-form Gamma tail, and the naive
// byte-quantile baseline (H6–H8).
//
// Usage:
//
//	go run ./cmd/fidelity [-dur 150ms] [-seed 1] [-breakdown]
//
// The same seed and duration always produce byte-identical output; the
// default configuration's reports are pinned by golden tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"e2ebatch/internal/figures"
)

func main() {
	dur := flag.Duration("dur", 150*time.Millisecond, "virtual duration of each workload run")
	seed := flag.Int64("seed", 1, "base seed (each workload derives its own)")
	breakdown := flag.Bool("breakdown", false, "also print the analytic per-stage breakdown")
	flag.Parse()

	out := figures.Fidelity(figures.DefaultCalib(), *dur, *seed)
	figures.WriteFidelity(os.Stdout, out)
	if *breakdown {
		figures.WriteFidelityBreakdown(os.Stdout, out)
	}
	fmt.Println()
	figures.WriteTailFidelity(os.Stdout, out)
}
