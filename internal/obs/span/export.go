package span

import (
	"encoding/json"
	"io"
)

// traceEvent is one Chrome trace_event entry ("X" complete events;
// timestamps and durations in microseconds, fractional for sub-µs spans).
type traceEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  uint32     `json:"tid"`
	Args *traceArgs `json:"args,omitempty"`
}

type traceArgs struct {
	ReqID    uint64  `json:"req_id"`
	Conn     uint32  `json:"conn"`
	EstUs    float64 `json:"est_us,omitempty"`
	EstP99Us float64 `json:"est_p99_us,omitempty"`
}

const usPerNs = 1e-3

// WriteChromeTrace writes up to n spans per shard in Chrome trace_event
// JSON (load in chrome://tracing or Perfetto). Shards render as threads,
// each span as one "rtt" slice from enqueue to ack.
func WriteChromeTrace(w io.Writer, r *Ring[Span], n int) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, sp := range r.Last(n) {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		args := &traceArgs{ReqID: sp.ReqID, Conn: sp.Conn}
		if sp.EstValid {
			args.EstUs = float64(sp.EstNs) * usPerNs
		}
		if sp.TailValid {
			args.EstP99Us = float64(sp.EstP99Ns) * usPerNs
		}
		// Encoder appends a newline after each value; inside a JSON array
		// that is harmless whitespace.
		if err := enc.Encode(&traceEvent{Name: "rtt", Cat: "span", Ph: "X", Pid: 1, Tid: sp.Shard, Args: args,
			Ts: float64(sp.EnqueueNs) * usPerNs, Dur: float64(sp.AckNs-sp.EnqueueNs) * usPerNs}); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}
