package span

import (
	"sync"
	"testing"
)

// push publishes a copy of sp into its shard, stamping its sequence.
func push(r *Ring[Span], sp *Span) { r.Push(int(sp.Shard), sp, &sp.Seq) }

// TestRingSequentialOrder: pushes land oldest-first in ShardLast, with
// per-shard sequences stamped in order and wrapping overwriting the oldest.
func TestRingSequentialOrder(t *testing.T) {
	r := NewRing(1, 4)
	for i := 0; i < 6; i++ {
		sp := Span{ReqID: uint64(i)}
		push(r, &sp)
		if sp.Seq != uint64(i) {
			t.Fatalf("push %d stamped seq %d", i, sp.Seq)
		}
	}
	got := r.ShardLast(0, 10)
	if len(got) != 4 {
		t.Fatalf("ShardLast returned %d spans, want 4", len(got))
	}
	for i, sp := range got {
		if want := uint64(i + 2); sp.Seq != want || sp.ReqID != want {
			t.Errorf("slot %d: seq=%d reqID=%d, want %d", i, sp.Seq, sp.ReqID, want)
		}
	}
	if r.Len() != 6 {
		t.Errorf("Len=%d, want 6", r.Len())
	}
}

// TestRingShardRouting: the shard argument selects the sub-ring, modulo the
// count.
func TestRingShardRouting(t *testing.T) {
	r := NewRing(4, 8)
	for i := 0; i < 16; i++ {
		sp := Span{ReqID: uint64(i), Shard: uint32(i)}
		push(r, &sp)
	}
	for sh := 0; sh < 4; sh++ {
		got := r.ShardLast(sh, 8)
		if len(got) != 4 {
			t.Fatalf("shard %d holds %d spans, want 4", sh, len(got))
		}
		for _, sp := range got {
			if int(sp.Shard)%4 != sh {
				t.Errorf("span with Shard=%d landed in shard %d", sp.Shard, sh)
			}
		}
	}
	if n := len(r.Last(8)); n != 16 {
		t.Errorf("Last concatenated %d spans, want 16", n)
	}
}

// TestRingLaggardNeverOverwritesNewer is the ring's concurrency property:
// many writers hammer one small shard so slow pushers routinely get lapped,
// while a reader copies records out. The reader must only ever see whole
// records (ReqID and Conn written together) in ascending sequence, and at
// the end the laggard guard must hold — every exported record's Seq maps to
// its own slot, so a stale writer never clobbered a newer one. Run under
// -race this also proves the locking discipline.
func TestRingLaggardNeverOverwritesNewer(t *testing.T) {
	const (
		writers = 8
		each    = 2000
		slots   = 16
	)
	r := NewRing(1, slots)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := Span{ReqID: uint64(w)<<32 | uint64(i), Conn: uint32(w)}
				push(r, &sp)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r.Len() < writers*each {
			var prev uint64
			for j, sp := range r.Last(slots) {
				if uint32(sp.ReqID>>32) != sp.Conn {
					t.Errorf("torn record: req %x from conn %d", sp.ReqID, sp.Conn)
					return
				}
				if j > 0 && sp.Seq <= prev {
					t.Errorf("out-of-order read: seq %d after %d", sp.Seq, prev)
					return
				}
				prev = sp.Seq
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != writers*each {
		t.Fatalf("Len=%d, want %d", r.Len(), writers*each)
	}
	got := r.ShardLast(0, slots)
	var prev uint64
	for i, sp := range got {
		if i > 0 && sp.Seq <= prev {
			t.Errorf("export order broken: seq %d after %d", sp.Seq, prev)
		}
		prev = sp.Seq
		if sp.Seq < writers*each-slots {
			t.Errorf("slot holds lapped span seq %d (head %d, cap %d): a laggard overwrote a newer record",
				sp.Seq, writers*each, slots)
		}
	}
}
