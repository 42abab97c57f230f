// Package span is the request-scoped tracing and online estimator-audit
// plane: a deterministic, sampling-based record of individual request
// lifecycles (enqueue → response) plus the live
// comparison of each sampled request's measured delay against the
// end-to-end estimate that was current when its batching decision fired.
//
// The package closes the loop the offline fidelity harness opened: where
// cmd/fidelity replays the workload zoo after the fact, the Tracer watches
// production requests as they complete and the Auditor continuously scores
// the estimator against them — residual EWMA, p99-coverage, drift — feeding
// engine.AuditStats back into the control loop so a policy can retreat when
// its own estimate stops matching reality (PAPERS.md: "Scalable Tail
// Latency Estimation" argues tail estimates are only trustworthy under
// continuous validation).
//
// Determinism: the golden-pinned packages (sim, tcpsim, figures, analytic,
// faults) never import this package — the determinism analyzer enforces
// it. Spans reach simulated runs only through the plain-function seams those
// packages already expose (loadgen.Config.OnComplete, engine.Observer), so a
// traced run and an untraced run execute byte-identical event sequences.
//
// Both the unsampled path (one splitmix64 and a compare) and the sampled
// path (ring push + audit) are //e2e:hotpath and allocgate-pinned at
// 0 allocs/op.
package span

// Span is one sampled request's lifecycle record. Timestamps are
// nanoseconds on the emitting endpoint's clock: virtual time under the
// simulator, Client.Elapsed-style monotonic offsets on real sockets — the
// same timebase the endpoint's DecisionRecords use, so spans and decisions
// line up.
type Span struct {
	// Seq is the span's position in its ring shard's stream (stamped on
	// Push; 0-based, monotone per shard).
	Seq uint64 `json:"seq"`
	// ReqID identifies the request within its connection: the completion
	// index, which equals the issue index on the FIFO pipelines all
	// transports use.
	ReqID uint64 `json:"req_id"`
	// Shard and Conn locate the request: the owning shard (0 outside
	// fleet mode) and the connection index within the fleet.
	Shard uint32 `json:"shard"`
	Conn  uint32 `json:"conn"`

	// EnqueueNs is when the request entered the send path; AckNs, when its
	// response completed.
	EnqueueNs int64 `json:"enqueue_ns"`
	AckNs     int64 `json:"ack_ns"`

	// The estimate that was current when the span finished: the mean
	// end-to-end latency and the composed tail's p99, stamped from the
	// tick the Tracer last observed. EstValid/TailValid gate them exactly
	// like core.Estimate.Valid/Tail.Valid gate the originals.
	EstNs     int64 `json:"est_ns,omitempty"`
	EstP99Ns  int64 `json:"est_p99_ns,omitempty"`
	EstValid  bool  `json:"est_valid"`
	TailValid bool  `json:"tail_valid"`
}

// MeasuredNs returns the span's measured end-to-end delay.
//
//e2e:hotpath
func (s *Span) MeasuredNs() int64 { return s.AckNs - s.EnqueueNs }
