package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// push publishes a copy of rec, stamping its sequence.
func push(r *Ring, rec DecisionRecord) { r.Push(0, &rec, &rec.Seq) }

func TestRingLastSemantics(t *testing.T) {
	r := NewRing(4)
	if got := r.Last(10); got != nil {
		t.Fatalf("empty ring Last = %v, want nil", got)
	}
	for i := 0; i < 6; i++ {
		push(r, DecisionRecord{At: int64(i)})
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	// Capacity 4, 6 pushed: only records 2..5 survive, oldest first.
	got := r.Last(10)
	if len(got) != 4 {
		t.Fatalf("Last(10) returned %d records, want 4", len(got))
	}
	for i, rec := range got {
		wantSeq := uint64(2 + i)
		if rec.Seq != wantSeq || rec.At != int64(wantSeq) {
			t.Errorf("record %d: seq=%d at=%d, want seq=at=%d", i, rec.Seq, rec.At, wantSeq)
		}
	}
	if got := r.Last(2); len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("Last(2) = %+v, want seqs 4,5", got)
	}
	if got := r.Last(0); got != nil {
		t.Fatalf("Last(0) = %v, want nil", got)
	}
}

func TestRingJSONL(t *testing.T) {
	r := NewRing(8)
	push(r, DecisionRecord{At: 100, Mode: "batch-on", Valid: true})
	push(r, DecisionRecord{At: 200, Mode: "batch-off", Degraded: true})
	var b strings.Builder
	if err := r.WriteJSONL(&b, 10); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines []DecisionRecord
	for sc.Scan() {
		var rec DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 || lines[0].At != 100 || lines[1].At != 200 || !lines[1].Degraded || lines[1].Seq != 1 {
		t.Fatalf("JSONL round-trip = %+v", lines)
	}
}

// TestRingConcurrentReaders exercises the read contract: readers racing a
// writer must never see torn or out-of-order views, only whole records with
// ascending sequences.
func TestRingConcurrentReaders(t *testing.T) {
	r := NewRing(64)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			push(r, DecisionRecord{At: int64(i)})
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				recs := r.Last(32)
				var prev uint64
				for j, rec := range recs {
					if rec.At != int64(rec.Seq) {
						t.Errorf("torn record: seq=%d at=%d", rec.Seq, rec.At)
						return
					}
					if j > 0 && rec.Seq <= prev {
						t.Errorf("out-of-order read: %d after %d", rec.Seq, prev)
						return
					}
					prev = rec.Seq
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != total {
		t.Fatalf("Len = %d, want %d", r.Len(), total)
	}
}
