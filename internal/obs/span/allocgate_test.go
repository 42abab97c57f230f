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

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/engine"
)

func TestAllocGateSampledUnsampledPath(t *testing.T) {
	tr := New(Config{Seed: 9, SampleEvery: 64})
	var id uint64
	allocgate.Zero(t, 500, "Sampled", func() {
		_ = tr.Sampled(id)
		id++
	})
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
	allocgate.Zero(t, 500, "Begin+Finish (ring+audit)", func() {
		tr.Begin(&sp, uint32(id&1), 0, id, int64(id)*1_000)
		tr.Finish(&sp, int64(id)*1_000+900)
		id++
	})
}

func TestAllocGateObserveTick(t *testing.T) {
	tr := New(Config{Seed: 9, SampleEvery: 1})
	var i int64
	allocgate.Zero(t, 500, "ObserveTick", func() {
		tr.ObserveTick(0, tick(100_000+i, 400_000+i, true, i%4 != 0))
		i++
	})
}

func TestAllocGateAuditStats(t *testing.T) {
	a := NewAuditor(AuditConfig{})
	sp := Span{AckNs: 200_000, EstNs: 150_000, EstP99Ns: 600_000, EstValid: true, TailValid: true}
	a.Observe(&sp)
	var st engine.AuditStats
	allocgate.Zero(t, 500, "AuditStats (runs inside engine.Tick)", func() {
		st = a.AuditStats()
	})
	_ = st
}

func TestAllocGateRingPushSpan(t *testing.T) {
	r := NewRing(2, 64)
	var sp Span
	var id uint64
	allocgate.Zero(t, 500, "Ring.Push", func() {
		sp = Span{ReqID: id, Shard: uint32(id), EnqueueNs: int64(id), AckNs: int64(id) + 100}
		r.Push(int(sp.Shard), &sp, &sp.Seq)
		id++
	})
}
