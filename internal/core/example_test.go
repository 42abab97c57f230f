package core_test

import (
	"fmt"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/qstate"
)

// ExampleEstimateE2E evaluates the §3.2 formula
// L ≈ L_unacked − L_ackdelay^remote + L_unread + L_unread^remote.
func ExampleEstimateE2E() {
	mk := func(lat time.Duration) qstate.Avgs {
		return qstate.Avgs{Latency: lat, Throughput: 10000, Valid: true, Departures: 1}
	}
	local := core.Delays{
		Unacked: mk(100 * time.Microsecond),
		Unread:  mk(20 * time.Microsecond),
	}
	remote := core.Delays{
		Unread:   mk(30 * time.Microsecond),
		AckDelay: mk(10 * time.Microsecond),
	}
	est := core.EstimateE2E(local, remote)
	fmt.Printf("L = %v (valid: %v)\n", est.LocalView, est.Valid)
	// Output:
	// L = 140µs (valid: true)
}
