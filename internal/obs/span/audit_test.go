package span

import (
	"math/rand"
	"testing"
)

// TestResidualEWMAMatchesOracle: the auditor's integer EWMA and coverage
// counters, fed a sequential stream of spans, must equal an exact oracle
// recomputation of the same arithmetic — the property the AuditConfig doc
// promises. The oracle mirrors Observe precisely: the coverage check uses
// the EWMA *after* folding the current span's residual.
func TestResidualEWMAMatchesOracle(t *testing.T) {
	const shift = 3
	a := NewAuditor(AuditConfig{EWMAShift: shift, Shards: 1})
	rng := rand.New(rand.NewSource(99))

	var ew int64
	var wantCovered, wantTail uint64
	for i := 0; i < 5000; i++ {
		est := int64(50_000 + rng.Intn(200_000))
		p99 := est * 3
		m := est + int64(rng.Intn(300_000)) - 50_000
		sp := Span{EnqueueNs: 0, AckNs: m, EstNs: est, EstP99Ns: p99, EstValid: true, TailValid: true}
		a.Observe(&sp)

		resid := m - est
		ew += (resid - ew) >> shift
		wantTail++
		if m <= p99+ew {
			wantCovered++
		}
	}

	st := a.AuditStats()
	if got := int64(st.ResidualEWMA); got != ew {
		t.Errorf("residual EWMA %d != oracle %d", got, ew)
	}
	if st.TailAudited != wantTail || st.Covered != wantCovered {
		t.Errorf("coverage counters (tail=%d covered=%d) != oracle (tail=%d covered=%d)",
			st.TailAudited, st.Covered, wantTail, wantCovered)
	}
	if st.Audited != 5000 {
		t.Errorf("audited %d, want 5000", st.Audited)
	}
}

// TestBlindTailTrip: with ExpectTail armed, MinSamples mean-only spans and
// zero tail stamps must flip Drifting; without ExpectTail the same stream
// stays quiet.
func TestBlindTailTrip(t *testing.T) {
	for _, expect := range []bool{true, false} {
		a := NewAuditor(AuditConfig{ExpectTail: expect, MinSamples: 16})
		for i := 0; i < 16; i++ {
			sp := Span{AckNs: 100_000, EstNs: 90_000, EstValid: true}
			a.Observe(&sp)
		}
		st := a.AuditStats()
		if st.BlindTail != 16 || st.TailAudited != 0 {
			t.Fatalf("expect=%v: blind=%d tail=%d, want 16/0", expect, st.BlindTail, st.TailAudited)
		}
		if st.Drifting != expect {
			t.Errorf("expect=%v: Drifting=%v — blind-tail trip must fire iff ExpectTail", expect, st.Drifting)
		}
	}
}

// TestCoverageFloorTrip: enough tail-audited spans with coverage under the
// floor trips drift; the same misses below MinSamples stay quiet.
func TestCoverageFloorTrip(t *testing.T) {
	mk := func(n int) *Auditor {
		a := NewAuditor(AuditConfig{CoverageFloor: 0.9, MinSamples: 32, EWMAShift: 10})
		for i := 0; i < n; i++ {
			// Every span misses its p99 by far more than the EWMA can absorb.
			sp := Span{AckNs: 1_000_000, EstNs: 100_000, EstP99Ns: 200_000, EstValid: true, TailValid: true}
			a.Observe(&sp)
		}
		return a
	}
	if st := mk(8).AuditStats(); st.Drifting {
		t.Errorf("drift tripped on %d samples, below MinSamples", st.TailAudited)
	}
	if st := mk(64).AuditStats(); !st.Drifting {
		t.Errorf("drift quiet at coverage %.3f over %d samples", st.Coverage, st.TailAudited)
	}
}

// TestAuditStatsCrossShard: counters land in the cell Span.Shard selects and
// AuditStats sums every cell; stamp-less spans are not audited.
func TestAuditStatsCrossShard(t *testing.T) {
	a := NewAuditor(AuditConfig{Shards: 4})
	for sh := uint32(0); sh < 8; sh++ { // exercises the mod-4 routing too
		sp := Span{Shard: sh, AckNs: 100_000, EstNs: 90_000, EstP99Ns: 400_000, EstValid: true, TailValid: true}
		a.Observe(&sp)
		stampless := Span{Shard: sh, AckNs: 100_000}
		a.Observe(&stampless)
	}
	st := a.AuditStats()
	if st.Audited != 8 || st.TailAudited != 8 || st.Covered != 8 {
		t.Errorf("cross-shard rollup %+v, want 8 audited/tail/covered", st)
	}
	perShard := make([]uint64, 4)
	for i := range a.cells {
		perShard[i] = a.cells[i].audited.Load()
	}
	for i, n := range perShard {
		if n != 2 {
			t.Errorf("shard %d holds %d audited, want 2", i, n)
		}
	}
}
