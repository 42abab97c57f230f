// Package e2ebatch is a reproduction of "Batching with End-to-End
// Performance Estimation" (Borisov, Amit, Tsafrir — HotOS 2025): lightweight
// queue-state counters that estimate application-perceived end-to-end
// latency and throughput via Little's law, and batching policies (Nagle-
// style on/off toggling, AIMD batch limits) driven by those estimates.
//
// The implementation lives under internal/: qstate (Algorithms 1 and 2, the
// 36-byte wire exchange), core (the §3.2 combination), hints (§3.3), policy
// (§5) and engine (the one control loop every substrate drives).
//
// This root package names only what the repository benchmark's replay
// times: the queue state of Algorithm 1 and the §3.3 hint tracker.
package e2ebatch

import (
	"e2ebatch/internal/hints"
	"e2ebatch/internal/qstate"
)

// Time is a timestamp in nanoseconds since an arbitrary epoch (virtual or
// wall-clock).
type Time = qstate.Time

// QueueState is the paper's 4-tuple queue state (time, size, total,
// integral); mutate it through Track (Algorithm 1).
type QueueState = qstate.State

// NewHintTracker constructs the §3.3 hint tracker; GetAvgs over two of its
// successive Snapshots is the application-perceived estimate.
var NewHintTracker = hints.NewTracker
