package realtcp

import (
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/qstate"
)

// Elapsed returns the client's monotonic clock reading — the time base its
// hint counters are tracked on, and therefore the `now` an engine tick over
// this client must carry.
func (c *Client) Elapsed() qstate.Time { return qstate.Time(time.Since(c.start)) }

// EnginePort adapts the client to the shared control engine: samples come
// from the userspace create/complete counters (§3.3) and decisions map to
// TCP_NODELAY — the userspace-only deployment on stock kernels.
func (c *Client) EnginePort() engine.Port { return enginePort{c} }

type enginePort struct{ c *Client }

// Snapshot captures the hint tracker's single end-to-end queue as the
// sample's unacked queue; applying Little's law to it yields the
// application-perceived latency and throughput directly.
func (p enginePort) Snapshot(now qstate.Time) core.Sample {
	return core.Sample{
		Local: core.Queues{Unacked: p.c.tracker.Snapshot()},
		At:    now,
	}
}

// Apply maps the batching decision to TCP_NODELAY. There is no portable
// cork-threshold knob on stock kernels, so Decision.CorkBytes is ignored.
func (p enginePort) Apply(d engine.Decision) error {
	return p.c.SetNoDelay(!d.Batch)
}

// SelfContained reports true: the create/complete counters span the whole
// round trip, so a sample needs no peer metadata to be trustworthy.
func (p enginePort) SelfContained() bool { return true }

// Engine ticks for real-TCP clients are timers on the fleet's shard wheels
// (fleet.go), not per-connection ticker goroutines, which topple long before
// the 50k-connection target. The pertickerconn analyzer (DESIGN.md §8)
// keeps per-connection timer state from creeping back into this package.
