// Package e2ebatch is a reproduction of "Batching with End-to-End
// Performance Estimation" (Borisov, Amit, Tsafrir — HotOS 2025): lightweight
// queue-state counters that estimate application-perceived end-to-end
// latency and throughput via Little's law, and batching policies (Nagle-
// style on/off toggling, AIMD batch limits) driven by those estimates.
//
// This root package is the public API surface; it re-exports the core
// building blocks implemented under internal/:
//
//   - QueueState / Snapshot / GetAvgs — the paper's Algorithm 1 (TRACK) and
//     Algorithm 2 (GETAVGS): per-queue counters whose deltas yield average
//     occupancy, throughput, and queuing delay.
//   - WireState and the 36-byte codec — the per-exchange metadata two TCP
//     peers share (§3.2).
//   - Estimator / EstimateE2E — the three-queue end-to-end latency
//     combination of §3.2 (Figure 3).
//   - HintTracker / create-complete API — the §3.3 interface cooperative
//     applications use to close the semantic gap.
//   - Toggler / AIMD / objectives — the §5 dynamic batching policies.
//
// The substrates the evaluation runs on (deterministic TCP emulation,
// mini-Redis, load generator, experiment harness) live in internal/ and are
// exercised through cmd/e2efig and the examples.
package e2ebatch

import (
	"e2ebatch/internal/core"
	"e2ebatch/internal/hints"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// Time is a timestamp in nanoseconds since an arbitrary epoch (virtual or
// wall-clock).
type Time = qstate.Time

// QueueState is the paper's 4-tuple queue state (time, size, total,
// integral); mutate it through Track (Algorithm 1).
type QueueState = qstate.State

// Snapshot is the shareable 3-tuple (time, total, integral).
type Snapshot = qstate.Snapshot

// Avgs holds Little's-law averages over an interval: occupancy Q,
// throughput λ, and queuing delay Q/λ (Algorithm 2).
type Avgs = qstate.Avgs

// GetAvgs computes the averages between two successive snapshots.
func GetAvgs(prev, now Snapshot) Avgs { return qstate.GetAvgs(prev, now) }

// Wire-format metadata exchange (§3.2): 36 bytes per exchange.
type (
	// WireQueue is one queue's 3-tuple in 32-bit wire units.
	WireQueue = qstate.WireQueue
	// WireState is the full three-queue exchange payload.
	WireState = qstate.WireState
)

// WireSize is the encoded size of a WireState: 36 bytes, as stated in §3.2.
const WireSize = qstate.WireSize

// EncodeWire serializes a WireState; DecodeWire parses exactly one 36-byte
// encoding, rejecting any other length; WireAvgs computes wrap-aware averages
// between two exchanges; ToWireQueue converts a full-precision snapshot to
// wire units.
var (
	EncodeWire  = qstate.EncodeWire
	DecodeWire  = qstate.DecodeWire
	WireAvgs    = qstate.WireAvgs
	ToWireQueue = qstate.ToWire
)

// End-to-end estimation (§3.2).
type (
	// Queues bundles one endpoint's three monitored queue snapshots.
	Queues = core.Queues
	// Delays holds the three per-queue Little's-law averages.
	Delays = core.Delays
	// Estimate is an end-to-end latency/throughput estimate.
	Estimate = core.Estimate
	// Sample is one estimator observation (local queues + peer state).
	Sample = core.Sample
	// Estimator turns samples into per-interval estimates.
	Estimator = core.Estimator
)

// DelaysBetween, WireDelays, EstimateE2E and Aggregate expose the §3.2
// latency combination pipeline.
var (
	DelaysBetween = core.DelaysBetween
	WireDelays    = core.WireDelays
	EstimateE2E   = core.EstimateE2E
	Aggregate     = core.Aggregate
)

// HintTracker is the userspace queue state behind the §3.3 create/complete
// application hints.
type HintTracker = hints.Tracker

// NewHintTracker and NewHintEstimator construct the §3.3 hint pipeline.
var (
	NewHintTracker   = hints.NewTracker
	NewHintEstimator = hints.NewEstimator
)

// Batching policies (§5).
type (
	// Objective scores (latency, throughput) observations.
	Objective = policy.Objective
	// PreferLatency optimizes latency alone.
	PreferLatency = policy.PreferLatency
	// PreferThroughput optimizes throughput alone.
	PreferThroughput = policy.PreferThroughput
	// ThroughputUnderSLO is the paper's example policy.
	ThroughputUnderSLO = policy.ThroughputUnderSLO
	// Mode is a batching mode (BatchOn / BatchOff).
	Mode = policy.Mode
	// Toggler is the ε-greedy on/off controller.
	Toggler = policy.Toggler
	// TogglerConfig parameterizes the toggler.
	TogglerConfig = policy.TogglerConfig
	// AIMD is the additive-increase/multiplicative-decrease batch-limit
	// controller.
	AIMD = policy.AIMD
	// UCBToggler is the UCB1 bandit alternative to the ε-greedy Toggler.
	UCBToggler = policy.UCBToggler
)

// Batching modes.
const (
	BatchOff = policy.BatchOff
	BatchOn  = policy.BatchOn
)

// NewToggler, DefaultTogglerConfig and NewAIMD construct the policies.
var (
	NewToggler           = policy.NewToggler
	DefaultTogglerConfig = policy.DefaultTogglerConfig
	NewAIMD              = policy.NewAIMD
	NewUCBToggler        = policy.NewUCBToggler
)
