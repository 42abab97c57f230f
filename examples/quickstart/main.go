// Quickstart: the paper's counters and estimator on a synthetic workload,
// using only the public e2ebatch API.
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

	"e2ebatch"
)

func main() {
	// ---- Algorithm 1: track a queue ----
	// A queue of in-flight requests: each arrives, stays a while, leaves.
	var q e2ebatch.QueueState
	q.Init(0)
	start := q.Snapshot(0)

	now := e2ebatch.Time(0)
	at := func(d time.Duration) e2ebatch.Time { return now + e2ebatch.Time(d) }
	// 1000 requests, one every 100µs, each resident for 60µs — Track must
	// be called in time order, exactly as a kernel hook would be.
	for i := 0; i < 1000; i++ {
		q.Track(at(0), 1)
		q.Track(at(60*time.Microsecond), -1)
		now = at(100 * time.Microsecond)
	}
	end := q.Snapshot(now)

	// ---- Algorithm 2: averages over the interval ----
	a := e2ebatch.GetAvgs(start, end)
	fmt.Printf("queue:   avg occupancy %.2f, throughput %.0f/s, delay %v\n",
		a.Q, a.Throughput, a.Latency.Round(time.Microsecond))

	// ---- Wire exchange: 36 bytes per peer, wrap-safe 32-bit counters ----
	ws := e2ebatch.WireState{Unacked: e2ebatch.ToWireQueue(end)}
	buf := make([]byte, e2ebatch.WireSize)
	if _, err := e2ebatch.EncodeWire(buf, ws); err != nil {
		panic(err)
	}
	back, err := e2ebatch.DecodeWire(buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("wire:    %d bytes round-tripped; unacked total=%d\n", len(buf), back.Unacked.Total)

	// ---- End-to-end combination (§3.2) ----
	// Pretend the queue above was the local "unacked" queue and the peer
	// reported an unread queue holding each message 40µs plus a 15µs
	// ack-delay queue: L ≈ L_unacked − L_ackdelay^remote + L_unread^remote.
	local := e2ebatch.Delays{Unacked: a}
	remote := e2ebatch.Delays{
		Unread:   mkDelay(40*time.Microsecond, a.Throughput),
		AckDelay: mkDelay(15*time.Microsecond, a.Throughput),
	}
	est := e2ebatch.EstimateE2E(local, remote)
	fmt.Printf("e2e:     latency %v (valid=%v), throughput %.0f/s\n",
		est.Latency.Round(time.Microsecond), est.Valid, est.Throughput)

	// ---- Cooperative-application hints (§3.3) ----
	clock := e2ebatch.Time(0)
	tr := e2ebatch.NewHintTracker(func() e2ebatch.Time { return clock })
	he := e2ebatch.NewHintEstimator(tr)
	he.Sample() // prime
	for i := 0; i < 100; i++ {
		tr.Create(1)
		clock += e2ebatch.Time(300 * time.Microsecond) // response after 300µs
		tr.Complete(1)
		clock += e2ebatch.Time(700 * time.Microsecond)
	}
	ha := he.Sample()
	fmt.Printf("hints:   app-perceived latency %v, throughput %.0f/s\n",
		ha.Latency.Round(time.Microsecond), ha.Throughput)

	// ---- A toggling policy consuming the estimates (§5) ----
	tog := e2ebatch.NewToggler(
		e2ebatch.ThroughputUnderSLO{SLO: 500 * time.Microsecond},
		e2ebatch.DefaultTogglerConfig(),
		e2ebatch.BatchOff,
		rand.New(rand.NewSource(1)),
	)
	// Feed it estimates where batching meets the SLO and not batching
	// doesn't; it converges to batch-on.
	for i := 0; i < 100; i++ {
		if tog.Mode() == e2ebatch.BatchOn {
			tog.Observe(200*time.Microsecond, 50000, true)
		} else {
			tog.Observe(900*time.Microsecond, 40000, true)
		}
	}
	fmt.Printf("policy:  converged to %v after 100 ticks\n", tog.Mode())
}

func mkDelay(lat time.Duration, tput float64) e2ebatch.Avgs {
	return e2ebatch.Avgs{Latency: lat, Throughput: tput, Valid: true, Departures: 1}
}
