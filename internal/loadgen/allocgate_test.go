//go:build !race

// Allocation gate (DESIGN.md §13) for the generator's request path. Excluded
// under -race because the race runtime allocates shadow state that
// allocgate.Zero would charge to the tracked code.

package loadgen

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/sim"
)

// TestAllocGateBatchCycle pins the syscall-batch cycle at 0 allocations over
// 200 warmed requests: issue four requests into the batch buffer, flush them
// as one send(2), let the server answer, read the replies straight into the
// parser, and put the buffer back on the free list with the last reply.
func TestAllocGateBatchCycle(t *testing.T) {
	s := sim.New(1)
	_, _, mkGen, _ := rigOn(t, s)
	cfg := DefaultConfig(1, time.Hour) // never started: the test issues by hand
	cfg.SyscallBatch = 4
	g := mkGen(cfg, SetWorkload(16, 64))
	cycle := func() {
		for i := 0; i < cfg.SyscallBatch; i++ {
			g.issueOne(s.Now())
		}
		for s.Step() {
		}
	}
	for i := 0; i < 50; i++ {
		cycle() // warm: the free list, the parsers, the event heap, the store's keys
	}
	allocgate.Zero(t, 50, "50 batches of 4 requests", cycle)
	if g.res.Completed != g.res.Issued || g.res.Issued != 101*4 {
		t.Fatalf("issued %d, completed %d, want %d each", g.res.Issued, g.res.Completed, 101*4)
	}
	if sends := g.conn.Stats().Sends; sends != 101 {
		t.Fatalf("%d sends for 101 batches", sends)
	}
}
