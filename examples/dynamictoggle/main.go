// Dynamictoggle runs the paper's headline what-if as a closed loop: the
// mini-Redis SET workload on the simulated testbed, with the estimate-driven
// ε-greedy policy toggling Nagle batching live, compared against both static
// modes across a load ramp.
//
// Run with: go run ./examples/dynamictoggle
package main

import (
	"fmt"
	"os"
	"time"

	"e2ebatch/internal/figures"
)

func main() {
	cal := figures.DefaultCalib()
	toggle, _ := figures.Lookup("toggle")

	fmt.Println("Simulated Redis, 16 KiB SET workload; SLO", cal.SLO)
	fmt.Println("Dynamic = ε-greedy toggling driven by live Little's-law estimates")
	fmt.Println()
	toggle.Render(os.Stdout, figures.Params{Calib: cal, Dur: 400 * time.Millisecond, Seed: 7,
		Rates: []float64{10000, 25000, 40000, 55000, 70000}})

	fmt.Println()
	fmt.Println("Reading the table: at low load both modes meet the SLO, so the")
	fmt.Println("throughput-under-SLO objective is indifferent. Beyond the cutoff,")
	fmt.Println("static-off collapses into the multi-millisecond regime while the")
	fmt.Println("toggler tracks batch-on, paying only an ε-greedy exploration tax —")
	fmt.Println("the dynamic policy the paper argues the estimates enable (§4, §5).")
}
