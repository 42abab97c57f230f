package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Sharded metrics: one cache-line-padded atomic cell per shard, written
// contention-free by that shard's goroutine and rolled up lock-free at
// scrape time. A shard's Inc touches only its own cache line,
// so 50k connections ticking across N shards never serialize on a shared
// counter word; the total is computed by summing the cells at read time,
// which costs the scraper N loads instead of charging every increment a
// contended RMW.

// shardCell is one counter slot, padded to a cache line so neighboring
// shards' hot stores never false-share.
type shardCell struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a monotonically increasing counter split into
// per-shard cells. Each shard must only write its own index (the shard
// goroutine is the single writer); any goroutine may read.
type ShardedCounter struct {
	cells []shardCell
}

// NewShardedCounter returns a counter with n cells (n ≥ 1).
func NewShardedCounter(n int) *ShardedCounter {
	if n < 1 {
		n = 1
	}
	return &ShardedCounter{cells: make([]shardCell, n)}
}

// Shards returns the cell count.
func (c *ShardedCounter) Shards() int { return len(c.cells) }

// Inc adds one to shard's cell.
//
//e2e:hotpath
func (c *ShardedCounter) Inc(shard int) { c.cells[shard].v.Add(1) }

// Add adds n to shard's cell.
//
//e2e:hotpath
func (c *ShardedCounter) Add(shard int, n uint64) { c.cells[shard].v.Add(n) }

// ShardValue returns one cell's count.
func (c *ShardedCounter) ShardValue(shard int) uint64 { return c.cells[shard].v.Load() }

// Value sums every cell lock-free. Cells are read one atomic load at a
// time, so a concurrent burst may be partially visible — the standard
// statistical-counter contract; the value never goes backwards for any
// single-writer cell discipline.
func (c *ShardedCounter) Value() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// shardGaugeCell is one gauge slot, padded like shardCell.
type shardGaugeCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedGauge is an instantaneous signed value split into per-shard
// cells, for quantities that rise and fall (live connections per shard).
// Same single-writer-per-cell discipline as ShardedCounter.
type ShardedGauge struct {
	cells []shardGaugeCell
}

// NewShardedGauge returns a gauge with n cells (n ≥ 1).
func NewShardedGauge(n int) *ShardedGauge {
	if n < 1 {
		n = 1
	}
	return &ShardedGauge{cells: make([]shardGaugeCell, n)}
}

// Shards returns the cell count.
func (g *ShardedGauge) Shards() int { return len(g.cells) }

// Add adds delta (may be negative) to shard's cell.
//
//e2e:hotpath
func (g *ShardedGauge) Add(shard int, delta int64) { g.cells[shard].v.Add(delta) }

// Set replaces shard's cell.
//
//e2e:hotpath
func (g *ShardedGauge) Set(shard int, v int64) { g.cells[shard].v.Store(v) }

// ShardValue returns one cell's value.
func (g *ShardedGauge) ShardValue(shard int) int64 { return g.cells[shard].v.Load() }

// Value sums every cell lock-free (see ShardedCounter.Value).
func (g *ShardedGauge) Value() int64 {
	var t int64
	for i := range g.cells {
		t += g.cells[i].v.Load()
	}
	return t
}

// shardedCounterCell / shardedGaugeCell render one shard's cell as a child
// of the family (labels shard="i"); every child shares the same backing
// metric.
type shardedCounterChild struct {
	c     *ShardedCounter
	shard int
}

type shardedGaugeChild struct {
	g     *ShardedGauge
	shard int
}

// withShard appends the shard label to a constant label set.
func withShard(labels []Label, i int) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{"shard", strconv.Itoa(i)})
}

// ShardedCounter registers a counter family with one child per shard
// (label shard="i") and returns the sharded counter behind them.
// Re-registering the same name returns the existing counter; a shard-count
// mismatch panics (a wiring bug, like a type mismatch). Callers wanting a
// rolled-up total series alongside the per-shard children register a
// GaugeFunc over Value.
func (r *Registry) ShardedCounter(name, help string, shards int, labels ...Label) *ShardedCounter {
	c := NewShardedCounter(shards)
	first := r.register(name, help, "counter", withShard(labels, 0),
		func() metric { return shardedCounterChild{c, 0} }).(shardedCounterChild)
	if first.c != c {
		if first.c.Shards() != shards {
			panic(fmt.Sprintf("obs: sharded counter %q re-registered with %d shards (was %d)",
				name, shards, first.c.Shards()))
		}
		return first.c
	}
	for i := 1; i < c.Shards(); i++ {
		r.register(name, help, "counter", withShard(labels, i),
			func() metric { return shardedCounterChild{c, i} })
	}
	return c
}

// ShardedGauge is the gauge analogue of ShardedCounter.
func (r *Registry) ShardedGauge(name, help string, shards int, labels ...Label) *ShardedGauge {
	g := NewShardedGauge(shards)
	first := r.register(name, help, "gauge", withShard(labels, 0),
		func() metric { return shardedGaugeChild{g, 0} }).(shardedGaugeChild)
	if first.g != g {
		if first.g.Shards() != shards {
			panic(fmt.Sprintf("obs: sharded gauge %q re-registered with %d shards (was %d)",
				name, shards, first.g.Shards()))
		}
		return first.g
	}
	for i := 1; i < g.Shards(); i++ {
		r.register(name, help, "gauge", withShard(labels, i),
			func() metric { return shardedGaugeChild{g, i} })
	}
	return g
}
