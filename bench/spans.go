package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// spanRec is one line of the trace file. Spans of one request share Req;
// Parent names the span that caused this one ("" for a root), so a layer's
// self time is its span minus the children that name it as parent.
type spanRec struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

// spanLog keeps spans in memory until the run ends; it is filled from one
// goroutine at a time.
type spanLog struct{ recs []spanRec }

func (l *spanLog) add(r spanRec) { l.recs = append(l.recs, r) }

// write stores the spans as JSON lines under dir and says where.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.recs {
		if err := enc.Encode(&l.recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans in %s\n", workload, len(l.recs), path)
	return f.Close()
}

// programSpan is one line of the /debug/spans of a kvserver or a kvload, as
// far as the benchmark reads it.
type programSpan struct {
	ReqID     int64 `json:"req_id"`
	EnqueueNs int64 `json:"enqueue_ns"`
	AckNs     int64 `json:"ack_ns"`
}

// readSpans calls fn with every JSON line of a /debug/spans body.
func readSpans(r io.Reader, fn func(programSpan)) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var sp programSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("/debug/spans line %q: %w", sc.Text(), err)
		}
		fn(sp)
	}
	return sc.Err()
}
