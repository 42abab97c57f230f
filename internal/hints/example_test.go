package hints_test

import (
	"fmt"
	"time"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/qstate"
)

// ExampleTracker shows the §3.3 create/complete API: the tracker's single
// logical queue yields exact application-perceived performance.
func ExampleTracker() {
	var now qstate.Time
	tr := hints.NewTracker(func() qstate.Time { return now })
	prev := tr.Snapshot()

	for i := 0; i < 100; i++ {
		tr.Create(1)
		now += qstate.Time(250 * time.Microsecond) // response arrives
		tr.Complete(1)
		now += qstate.Time(750 * time.Microsecond) // think time
	}
	a := qstate.GetAvgs(prev, tr.Snapshot())
	fmt.Printf("latency = %v, throughput = %.0f req/s\n", a.Latency, a.Throughput)
	// Output:
	// latency = 250µs, throughput = 1000 req/s
}
