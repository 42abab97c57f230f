// Hints demonstrates the semantic gap (§3.3): on a heterogeneous 95:5
// SET:GET workload with a client that batches several requests per send(2),
// the kernel-observable message units (bytes, packets, send calls) all
// misestimate application-perceived latency, while the two-function
// create/complete hint API stays within a percent of ground truth.
//
// Run with: go run ./examples/hints
package main

import (
	"fmt"
	"os"
	"time"

	"e2ebatch/internal/figures"
)

func main() {
	hints, _ := figures.Lookup("hints")
	p := figures.Params{Calib: figures.DefaultCalib(), Dur: 300 * time.Millisecond, Seed: 7, Rates: []float64{10000, 30000}}

	fmt.Println("Workload: 95% SET (16 KiB values) / 5% GET (16 KiB responses)")
	fmt.Println()

	fmt.Println("-- cooperative syscalls: one request per send(2) --")
	p.SyscallBatch = 1
	hints.Render(os.Stdout, p)
	fmt.Println()

	fmt.Println("-- syscall batching: four requests per send(2) --")
	p.SyscallBatch = 4
	hints.Render(os.Stdout, p)
	fmt.Println()

	fmt.Println("Bytes/packets track stack residency only (and weight large GET")
	fmt.Println("responses disproportionately); send-units break once the client")
	fmt.Println("batches syscalls. The create/complete hints measure the single")
	fmt.Println("logical queue the application actually cares about, so Little's")
	fmt.Println("law applied to them is exact (§3.3, top of Figure 3).")
}
