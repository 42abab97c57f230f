package obs

import (
	"e2ebatch/internal/core"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/qstate"
)

// SnapTuple is one queue's (time, total, integral) 3-tuple as carried in a
// decision record — the same tuple Algorithm 1 exports and the metadata
// exchange ships.
type SnapTuple struct {
	Time     int64 `json:"time_ns"`
	Total    int64 `json:"total"`
	Integral int64 `json:"integral"`
}

func tuple(s qstate.Snapshot) SnapTuple {
	return SnapTuple{Time: int64(s.Time), Total: s.Total, Integral: s.Integral}
}

// SnapQueues is one endpoint's three monitored queues in a record.
type SnapQueues struct {
	Unacked  SnapTuple `json:"unacked"`
	Unread   SnapTuple `json:"unread"`
	AckDelay SnapTuple `json:"ackdelay"`
}

func snapQueues(q core.Queues) SnapQueues {
	return SnapQueues{Unacked: tuple(q.Unacked), Unread: tuple(q.Unread), AckDelay: tuple(q.AckDelay)}
}

// DecisionRecord is one engine tick as the telemetry plane saw it: which
// snapshot produced which estimate, how the estimate decomposed into local
// and remote views, whether the tick was degraded, whether the policy
// explored, what mode came out, and whether applying it succeeded. The ring
// stores records by value, so a pushed record is a frozen copy regardless
// of what the pusher does with its scratch afterwards.
type DecisionRecord struct {
	// Seq is the record's position in the endpoint's decision stream
	// (0-based, monotone).
	Seq uint64 `json:"seq"`
	// At is the tick timestamp on the endpoint's clock, in nanoseconds
	// (virtual time under the sim, Client.Elapsed on real sockets).
	At int64 `json:"at_ns"`
	// Endpoint names the emitting endpoint when several share a ring.
	Endpoint string `json:"endpoint,omitempty"`
	// Ports is the endpoint's port count (estimates aggregate over them).
	Ports int `json:"ports"`

	// Snapshot is port 0's local queue tuples at the tick; RemoteOK and
	// RemoteAt describe the peer metadata that accompanied it.
	Snapshot   SnapQueues `json:"snapshot"`
	RemoteOK   bool       `json:"remote_ok"`
	RemoteAtNs int64      `json:"remote_at_ns,omitempty"`

	// The estimate's components: the two §3.2 evaluations and the
	// combined result.
	LocalViewNs      int64   `json:"local_view_ns"`
	LocalViewValid   bool    `json:"local_view_valid"`
	RemoteViewNs     int64   `json:"remote_view_ns"`
	RemoteViewValid  bool    `json:"remote_view_valid"`
	LatencyNs        int64   `json:"latency_ns"`
	ThroughputPerSec float64 `json:"throughput_rps"`
	Valid            bool    `json:"valid"`
	Degraded         bool    `json:"degraded"`
	RemoteStale      bool    `json:"remote_stale"`

	// The composed tail estimate (v2 exchanges): quantiles are meaningful
	// only when TailValid is set; TailAbstained marks ticks a
	// tail-targeting policy routed degraded because the tail was missing
	// despite a valid mean (v1 peer, reordered deltas, idle interval).
	TailP99Ns     int64 `json:"tail_p99_ns,omitempty"`
	TailP999Ns    int64 `json:"tail_p999_ns,omitempty"`
	TailValid     bool  `json:"tail_valid"`
	TailAbstained bool  `json:"tail_abstained,omitempty"`

	// The online estimator audit (engine.Config.Audit): how many sampled
	// spans have been scored, the live p99 coverage and residual EWMA, and
	// whether the audit tripped on this tick. All zero when no auditor is
	// attached (AuditChecked false).
	AuditChecked    bool    `json:"audit_checked,omitempty"`
	AuditSpans      uint64  `json:"audit_spans,omitempty"`
	AuditCoverage   float64 `json:"audit_coverage,omitempty"`
	AuditResidualNs int64   `json:"audit_residual_ns,omitempty"`
	AuditDrift      bool    `json:"audit_drift,omitempty"`

	// The decision: explore-vs-exploit, the chosen mode, and the apply
	// outcome.
	Explored    bool   `json:"explored"`
	Mode        string `json:"mode"`
	Applied     bool   `json:"applied"`
	ApplyErrors int    `json:"apply_errors"`
}

// Ring is the decision-record ring: the one value-slot ring of package span
// with a single shard. Push stamps DecisionRecord.Seq and stores the record
// by value, so the engine tick's push allocates nothing. Writes from
// multiple endpoints are safe; per-endpoint record order is preserved
// because each endpoint ticks on one goroutine.
type Ring = span.Ring[DecisionRecord]

// NewRing returns a ring holding the last n records (n <= 0 defaults to
// 1024).
func NewRing(n int) *Ring { return span.NewRingOf[DecisionRecord](1, n) }
