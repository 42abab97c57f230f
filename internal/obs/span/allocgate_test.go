//go:build !race

// Allocation gates for the span plane's //e2e:hotpath functions: Sampled
// runs on every request (the unsampled path IS this call), and
// Begin/Finish/Observe/Push ride on completion paths at wire rate, so none
// of them may feed the GC. Excluded under -race because the race runtime's
// shadow allocations would be charged to the tracked code (same exclusion
// as internal/obs/allocgate_test.go).

package span

import (
	"testing"

	"e2ebatch/internal/engine"
)

func TestAllocGateSampledUnsampledPath(t *testing.T) {
	tr := New(Config{Seed: 9, SampleEvery: 64})
	var id uint64
	if n := testing.AllocsPerRun(500, func() {
		_ = tr.Sampled(id)
		id++
	}); n != 0 {
		t.Errorf("Sampled allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}

func TestAllocGateSampledSpanLifecycle(t *testing.T) {
	tr := New(Config{
		Seed: 9, SampleEvery: 1,
		Ring:  NewRing(2, 64),
		Audit: NewAuditor(AuditConfig{ExpectTail: true}),
	})
	tr.ObserveTick(0, tick(100_000, 400_000, true, true))
	var sp Span
	var id uint64
	if n := testing.AllocsPerRun(500, func() {
		tr.Begin(&sp, uint32(id&1), 0, id, int64(id)*1_000)
		tr.Finish(&sp, int64(id)*1_000+900)
		id++
	}); n != 0 {
		t.Errorf("Begin+Finish (ring+audit) allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}

func TestAllocGateObserveTick(t *testing.T) {
	tr := New(Config{Seed: 9, SampleEvery: 1})
	var i int64
	if n := testing.AllocsPerRun(500, func() {
		tr.ObserveTick(0, tick(100_000+i, 400_000+i, true, i%4 != 0))
		i++
	}); n != 0 {
		t.Errorf("ObserveTick allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}

func TestAllocGateAuditStats(t *testing.T) {
	a := NewAuditor(AuditConfig{})
	sp := Span{AckNs: 200_000, EstNs: 150_000, EstP99Ns: 600_000, EstValid: true, TailValid: true}
	a.Observe(&sp)
	var st engine.AuditStats
	if n := testing.AllocsPerRun(500, func() {
		st = a.AuditStats()
	}); n != 0 {
		t.Errorf("AuditStats allocates %v per op, want 0 (runs inside engine.Tick)", n)
	}
	_ = st
}

func TestAllocGateRingPushSpan(t *testing.T) {
	r := NewRing(2, 64)
	var sp Span
	var id uint64
	if n := testing.AllocsPerRun(500, func() {
		sp = Span{ReqID: id, Shard: uint32(id), EnqueueNs: int64(id), AckNs: int64(id) + 100}
		r.Push(int(sp.Shard), &sp, &sp.Seq)
		id++
	}); n != 0 {
		t.Errorf("Ring.Push allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}
