package e2ebatch_test

import (
	"fmt"
	"math/rand"
	"time"

	"e2ebatch"
)

// ExampleGetAvgs reproduces the paper's §3.1 illustration: a queue holding
// one item for 10 µs and then four items for 20 µs has an average occupancy
// of (1×10 + 4×20) / 30 = 3 items.
func ExampleGetAvgs() {
	us := func(n int64) e2ebatch.Time { return e2ebatch.Time(n * 1000) }
	var q e2ebatch.QueueState
	q.Init(0)
	start := q.Snapshot(us(0))
	q.Track(us(0), 1)  // one item from t=0
	q.Track(us(10), 3) // four items from t=10µs
	q.Track(us(30), -4)
	end := q.Snapshot(us(30))

	a := e2ebatch.GetAvgs(start, end)
	fmt.Printf("Q = %.0f items\n", a.Q)
	fmt.Printf("latency = %v\n", a.Latency)
	// Output:
	// Q = 3 items
	// latency = 22.5µs
}

// ExampleEstimateE2E evaluates the §3.2 formula
// L ≈ L_unacked − L_ackdelay^remote + L_unread + L_unread^remote.
func ExampleEstimateE2E() {
	mk := func(lat time.Duration) e2ebatch.Avgs {
		return e2ebatch.Avgs{Latency: lat, Throughput: 10000, Valid: true, Departures: 1}
	}
	local := e2ebatch.Delays{
		Unacked: mk(100 * time.Microsecond),
		Unread:  mk(20 * time.Microsecond),
	}
	remote := e2ebatch.Delays{
		Unread:   mk(30 * time.Microsecond),
		AckDelay: mk(10 * time.Microsecond),
	}
	est := e2ebatch.EstimateE2E(local, remote)
	fmt.Printf("L = %v (valid: %v)\n", est.LocalView, est.Valid)
	// Output:
	// L = 140µs (valid: true)
}

// ExampleHintTracker shows the §3.3 create/complete API: the tracker's
// single logical queue yields exact application-perceived performance.
func ExampleHintTracker() {
	var now e2ebatch.Time
	tr := e2ebatch.NewHintTracker(func() e2ebatch.Time { return now })
	prev := tr.Snapshot()

	for i := 0; i < 100; i++ {
		tr.Create(1)
		now += e2ebatch.Time(250 * time.Microsecond) // response arrives
		tr.Complete(1)
		now += e2ebatch.Time(750 * time.Microsecond) // think time
	}
	a := e2ebatch.GetAvgs(prev, tr.Snapshot())
	fmt.Printf("latency = %v, throughput = %.0f req/s\n", a.Latency, a.Throughput)
	// Output:
	// latency = 250µs, throughput = 1000 req/s
}

// ExampleToggler drives the ε-greedy policy with estimates where batching
// meets a 500 µs SLO and not batching does not; it converges to batch-on.
func ExampleToggler() {
	tog := e2ebatch.NewToggler(
		e2ebatch.ThroughputUnderSLO{SLO: 500 * time.Microsecond},
		e2ebatch.DefaultTogglerConfig(),
		e2ebatch.BatchOff,
		rand.New(rand.NewSource(1)),
	)
	for i := 0; i < 200; i++ {
		if tog.Mode() == e2ebatch.BatchOn {
			tog.Observe(200*time.Microsecond, 50000, true)
		} else {
			tog.Observe(900*time.Microsecond, 40000, true)
		}
	}
	fmt.Println(tog.Mode())
	// Output:
	// batch-on
}

// ExampleEncodeWire shows the 36-byte metadata exchange of §3.2.
func ExampleEncodeWire() {
	var q e2ebatch.QueueState
	q.Init(0)
	q.Track(0, 2)
	q.Track(e2ebatch.Time(5*time.Millisecond), -2)
	ws := e2ebatch.WireState{Unacked: e2ebatch.ToWireQueue(q.Snapshot(e2ebatch.Time(10 * time.Millisecond)))}

	buf := make([]byte, e2ebatch.WireSize)
	n, _ := e2ebatch.EncodeWire(buf, ws)
	back, _ := e2ebatch.DecodeWire(buf)
	fmt.Printf("%d bytes; unacked total = %d items\n", n, back.Unacked.Total)
	// Output:
	// 36 bytes; unacked total = 2 items
}

// ExampleAIMD shows the §5 batch-limit controller: additive growth while
// the signal says "grow", multiplicative decay otherwise.
func ExampleAIMD() {
	a := e2ebatch.NewAIMD(1448, 65536, 8192, 0.5)
	for i := 0; i < 4; i++ {
		a.Observe(true) // SLO violated: batch more
	}
	fmt.Println("after growth:", a.Limit())
	a.Observe(false) // healthy: back off
	fmt.Println("after decay:", a.Limit())
	// Output:
	// after growth: 34216
	// after decay: 17108
}
