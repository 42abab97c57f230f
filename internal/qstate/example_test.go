package qstate_test

import (
	"fmt"
	"time"

	"e2ebatch/internal/qstate"
)

// ExampleGetAvgs reproduces the paper's §3.1 illustration: a queue holding
// one item for 10 µs and then four items for 20 µs has an average occupancy
// of (1×10 + 4×20) / 30 = 3 items.
func ExampleGetAvgs() {
	us := func(n int64) qstate.Time { return qstate.Time(n * 1000) }
	var q qstate.State
	q.Init(0)
	start := q.Snapshot(us(0))
	q.Track(us(0), 1)  // one item from t=0
	q.Track(us(10), 3) // four items from t=10µs
	q.Track(us(30), -4)
	end := q.Snapshot(us(30))

	a := qstate.GetAvgs(start, end)
	fmt.Printf("Q = %.0f items\n", a.Q)
	fmt.Printf("latency = %v\n", a.Latency)
	// Output:
	// Q = 3 items
	// latency = 22.5µs
}

// ExampleEncodeWire shows the 36-byte metadata exchange of §3.2.
func ExampleEncodeWire() {
	var q qstate.State
	q.Init(0)
	q.Track(0, 2)
	q.Track(qstate.Time(5*time.Millisecond), -2)
	ws := qstate.WireState{Unacked: qstate.ToWire(q.Snapshot(qstate.Time(10 * time.Millisecond)))}

	buf := make([]byte, qstate.WireSize)
	n, _ := qstate.EncodeWire(buf, ws)
	back, _ := qstate.DecodeWire(buf)
	fmt.Printf("%d bytes; unacked total = %d items\n", n, back.Unacked.Total)
	// Output:
	// 36 bytes; unacked total = 2 items
}
