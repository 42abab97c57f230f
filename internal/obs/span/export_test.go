package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func exportRing() *Ring[Span] {
	r := NewRing(2, 8)
	// Shard 0: a span with an estimate stamp.
	full := Span{
		ReqID: 7, Shard: 0, Conn: 3,
		EnqueueNs: 1_000, AckNs: 4_000,
		EstNs: 2_800, EstP99Ns: 9_000, EstValid: true, TailValid: true,
	}
	push(r, &full)
	// Shard 1: no stamp.
	rtt := Span{ReqID: 8, Shard: 1, EnqueueNs: 2_000, AckNs: 6_000}
	push(r, &rtt)
	return r
}

// TestWriteJSONL: one valid JSON object per line, spans round-trip through
// the export losslessly, shard order.
func TestWriteJSONL(t *testing.T) {
	r := exportRing()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 8); err != nil {
		t.Fatal(err)
	}
	var got []Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, sp)
	}
	if len(got) != 2 {
		t.Fatalf("exported %d lines, want 2", len(got))
	}
	if got[0].ReqID != 7 || got[0].AckNs != 4000 || !got[0].TailValid || got[0].EstP99Ns != 9000 {
		t.Errorf("full span mangled in export: %+v", got[0])
	}
	if got[1].ReqID != 8 || got[1].EnqueueNs != 2000 || got[1].EstValid {
		t.Errorf("rtt span mangled in export: %+v", got[1])
	}
}

// TestWriteChromeTrace: the export is one valid JSON document, every span
// renders as one rtt slice over its measured interval, and shards map to
// thread IDs.
func TestWriteChromeTrace(t *testing.T) {
	r := exportRing()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, 8); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  uint32  `json:"tid"`
			Args struct {
				ReqID    uint64  `json:"req_id"`
				EstP99Us float64 `json:"est_p99_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("unit=%q events=%d, want ms / 2", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	full, rtt := doc.TraceEvents[0], doc.TraceEvents[1]
	if full.Name != "rtt" || full.Ts != 1.0 || full.Dur != 3.0 { // 1000ns → 1µs; 3000ns measured
		t.Errorf("stamped slice %+v, want rtt at 1.0 µs lasting 3.0 µs", full)
	}
	if full.Tid != 0 || full.Args.EstP99Us != 9.0 || full.Args.ReqID != 7 {
		t.Errorf("stamped slice args %+v", full)
	}
	if rtt.Name != "rtt" || rtt.Tid != 1 || rtt.Args.EstP99Us != 0 || rtt.Dur != 4.0 {
		t.Errorf("rtt slice %+v", rtt)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete (X)", ev.Name, ev.Ph)
		}
	}
}
