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
	Aborted  bool    `json:"aborted,omitempty"`
}

const usPerNs = 1e-3

// WriteChromeTrace writes up to n spans per shard in Chrome trace_event
// JSON (load in chrome://tracing or Perfetto). Shards render as threads. A
// span that observed its wire send splits into a "cork" slice (enqueue →
// send: the batch/cork window) and a "wire" slice (send → ack); one that
// only observed completion renders as a single "rtt" slice.
func WriteChromeTrace(w io.Writer, r *Ring[Span], n int) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev *traceEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		// Encoder appends a newline after each value; inside a JSON array
		// that is harmless whitespace.
		return enc.Encode(ev)
	}
	for _, sp := range r.Last(n) {
		args := &traceArgs{ReqID: sp.ReqID, Conn: sp.Conn, Aborted: sp.Aborted}
		if sp.EstValid {
			args.EstUs = float64(sp.EstNs) * usPerNs
		}
		if sp.TailValid {
			args.EstP99Us = float64(sp.EstP99Ns) * usPerNs
		}
		ev := traceEvent{Cat: "span", Ph: "X", Pid: 1, Tid: sp.Shard, Args: args}
		if sp.SendNs > 0 {
			ev.Name = "cork"
			ev.Ts = float64(sp.EnqueueNs) * usPerNs
			ev.Dur = float64(sp.SendNs-sp.EnqueueNs) * usPerNs
			if err := emit(&ev); err != nil {
				return err
			}
			wire := ev
			wire.Name = "wire"
			wire.Ts = float64(sp.SendNs) * usPerNs
			wire.Dur = float64(sp.AckNs-sp.SendNs) * usPerNs
			if err := emit(&wire); err != nil {
				return err
			}
			continue
		}
		ev.Name = "rtt"
		ev.Ts = float64(sp.EnqueueNs) * usPerNs
		ev.Dur = float64(sp.AckNs-sp.EnqueueNs) * usPerNs
		if err := emit(&ev); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}")
	return err
}
