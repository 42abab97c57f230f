// Quickstart: the paper's counters and estimator on a synthetic workload,
// using only the loop's building blocks (qstate, core, hints, policy).
//
// It walks through the full pipeline: TRACK a queue (Algorithm 1), derive
// Little's-law averages (Algorithm 2), share 36-byte wire states, and
// combine both sides' queues into an end-to-end latency estimate (§3.2).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/hints"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

func main() {
	// ---- Algorithm 1: track a queue ----
	// A queue of in-flight requests: each arrives, stays a while, leaves.
	var q qstate.State
	q.Init(0)
	start := q.Snapshot(0)

	now := qstate.Time(0)
	at := func(d time.Duration) qstate.Time { return now + qstate.Time(d) }
	// 1000 requests, one every 100µs, each resident for 60µs — Track must
	// be called in time order, exactly as a kernel hook would be.
	for i := 0; i < 1000; i++ {
		q.Track(at(0), 1)
		q.Track(at(60*time.Microsecond), -1)
		now = at(100 * time.Microsecond)
	}
	end := q.Snapshot(now)

	// ---- Algorithm 2: averages over the interval ----
	a := qstate.GetAvgs(start, end)
	fmt.Printf("queue:   avg occupancy %.2f, throughput %.0f/s, delay %v\n",
		a.Q, a.Throughput, a.Latency.Round(time.Microsecond))

	// ---- Wire exchange: 36 bytes per peer, wrap-safe 32-bit counters ----
	ws := qstate.WireState{Unacked: qstate.ToWire(end)}
	buf := make([]byte, qstate.WireSize)
	if _, err := qstate.EncodeWire(buf, ws); err != nil {
		panic(err)
	}
	back, err := qstate.DecodeWire(buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("wire:    %d bytes round-tripped; unacked total=%d\n", len(buf), back.Unacked.Total)

	// ---- End-to-end combination (§3.2) ----
	// Pretend the queue above was the local "unacked" queue and the peer
	// reported an unread queue holding each message 40µs plus a 15µs
	// ack-delay queue: L ≈ L_unacked − L_ackdelay^remote + L_unread^remote.
	local := core.Delays{Unacked: a}
	remote := core.Delays{
		Unread:   mkDelay(40*time.Microsecond, a.Throughput),
		AckDelay: mkDelay(15*time.Microsecond, a.Throughput),
	}
	est := core.EstimateE2E(local, remote)
	fmt.Printf("e2e:     latency %v (valid=%v), throughput %.0f/s\n",
		est.Latency.Round(time.Microsecond), est.Valid, est.Throughput)

	// ---- Cooperative-application hints (§3.3) ----
	clock := qstate.Time(0)
	tr := hints.NewTracker(func() qstate.Time { return clock })
	prev := tr.Snapshot()
	for i := 0; i < 100; i++ {
		tr.Create(1)
		clock += qstate.Time(300 * time.Microsecond) // response after 300µs
		tr.Complete(1)
		clock += qstate.Time(700 * time.Microsecond)
	}
	ha := qstate.GetAvgs(prev, tr.Snapshot())
	fmt.Printf("hints:   app-perceived latency %v, throughput %.0f/s\n",
		ha.Latency.Round(time.Microsecond), ha.Throughput)

	// ---- A toggling policy consuming the estimates (§5) ----
	tog := policy.NewToggler(
		policy.ThroughputUnderSLO{SLO: 500 * time.Microsecond},
		policy.DefaultTogglerConfig(),
		policy.BatchOff,
		rand.New(rand.NewSource(1)),
	)
	// Feed it estimates where batching meets the SLO and not batching
	// doesn't; it converges to batch-on.
	for i := 0; i < 100; i++ {
		if tog.Mode() == policy.BatchOn {
			tog.Observe(200*time.Microsecond, 50000, true)
		} else {
			tog.Observe(900*time.Microsecond, 40000, true)
		}
	}
	fmt.Printf("policy:  converged to %v after 100 ticks\n", tog.Mode())
}

func mkDelay(lat time.Duration, tput float64) qstate.Avgs {
	return qstate.Avgs{Latency: lat, Throughput: tput, Valid: true, Departures: 1}
}
