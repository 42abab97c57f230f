package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"e2ebatch/internal/qstate"
)

// Config parameterizes a Group. The zero value is usable: GOMAXPROCS
// shards, 1 ms wheel tick, a monotonic clock epoch'd at NewGroup, and a
// 1024-entry run queue per shard.
type Config struct {
	// Shards is the number of shards (default runtime.GOMAXPROCS(0)).
	Shards int
	// Tick is the wheel granularity and the period of each shard's driver
	// ticker (default 1 ms). Every timer delay on the shard rounds up to
	// this, so it bounds control-tick precision fleet-wide.
	Tick time.Duration
	// Now supplies timestamps to the shard loops and wheels. The default
	// reads a monotonic clock epoch'd at NewGroup. Tests substitute a
	// simulated clock here and drive shards manually via Service, which
	// makes shard logic deterministic without sockets.
	Now func() qstate.Time
	// RunQueue is the per-shard run-queue capacity (default 1024). Submit
	// blocks when it fills, which backpressures bulk producers (the fleet
	// dialer) instead of growing unbounded.
	RunQueue int
}

// Group is a set of shared-nothing shards. Connections (or any keyed work)
// map to shards by hash — Of — and everything a shard owns is touched only
// on that shard's goroutine, so shards never contend with each other.
type Group struct {
	shards []*Shard

	mu      sync.Mutex
	started bool
	stopped bool
}

// NewGroup builds the shards without starting their loops. Between NewGroup
// and Start the group is in manual mode: Submit queues work and
// Shard.Service runs it deterministically on the caller's goroutine — the
// unit-test harness for shard-owned logic.
func NewGroup(cfg Config) *Group {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Now == nil {
		epoch := time.Now()
		cfg.Now = func() qstate.Time { return qstate.Time(time.Since(epoch)) }
	}
	if cfg.RunQueue <= 0 {
		cfg.RunQueue = 1024
	}
	g := &Group{shards: make([]*Shard, cfg.Shards)}
	for i := range g.shards {
		g.shards[i] = &Shard{
			id:    i,
			tick:  cfg.Tick,
			now:   cfg.Now,
			wheel: NewWheel(cfg.Now(), cfg.Tick),
			runq:  make(chan func(), cfg.RunQueue),
			stopc: make(chan struct{}),
			done:  make(chan struct{}),
		}
	}
	return g
}

// Len returns the number of shards.
func (g *Group) Len() int { return len(g.shards) }

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Of maps a hash to its owning shard (see HashString / HashUint64).
func (g *Group) Of(hash uint64) *Shard {
	return g.shards[hash%uint64(len(g.shards))]
}

// Start launches one event-loop goroutine per shard. Work already queued
// via Submit drains on the new loops.
func (g *Group) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return
	}
	g.started = true
	for _, s := range g.shards {
		go s.loop()
	}
}

// Stop halts every shard loop and waits for them to exit, so everything
// the shards wrote happens-before Stop's return — after Stop the caller
// may read shard-owned state (endpoint stats, wheel counters) directly.
// Each loop performs a final Service on the way out, so work Submitted
// before Stop is not lost. Stop on a never-started group just marks it
// stopped; Stop is idempotent.
func (g *Group) Stop() {
	g.mu.Lock()
	if g.stopped {
		started := g.started
		g.mu.Unlock()
		if started {
			for _, s := range g.shards {
				<-s.done
			}
		}
		return
	}
	g.stopped = true
	started := g.started
	g.mu.Unlock()
	for _, s := range g.shards {
		s.stopOnce.Do(func() { close(s.stopc) })
	}
	if started {
		for _, s := range g.shards {
			<-s.done
		}
	}
}

// Stats returns a snapshot of every shard's counters (safe during a run:
// the fields are atomic mirrors).
func (g *Group) Stats() []Stats {
	out := make([]Stats, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.Stats()
	}
	return out
}

// Stats is one shard's activity snapshot, readable lock-free at any time
// (scrape-time rollup reads these mirrors; the shard goroutine is the only
// writer, the padded-atomics idiom of obs.ShardedCounter).
type Stats struct {
	// Services counts Service passes (driver ticks plus run-queue wakes);
	// Fired counts timer callbacks dispatched; Armed is the number of
	// currently scheduled timers.
	Services uint64
	Fired    uint64
	Armed    int64
	// Behind is the tick backlog observed at the last Service entry beyond
	// the single tick that is nominally due; MaxBehind is its worst value
	// over the run. A loaded-but-keeping-up shard holds both near zero.
	Behind    int64
	MaxBehind int64
	// RunQueue is the current run-queue depth.
	RunQueue int
}

// Shard is one shared-nothing event loop: a timer wheel, a run queue, and
// the connections hashed to it. All shard-owned state — the wheel, every
// Timer on it, whatever the callbacks touch — is confined to the shard
// goroutine (or, in manual mode, to whichever single goroutine calls
// Service). Cross-shard communication goes through Submit.
type Shard struct {
	id    int
	tick  time.Duration
	now   func() qstate.Time
	wheel *Wheel
	runq  chan func()

	stopc    chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Atomic mirrors of shard-goroutine-owned counters, padded so two
	// shards' hot stores never share a cache line even if the runtime
	// co-locates the structs.
	services  atomic.Uint64
	_         [56]byte
	fired     atomic.Uint64
	_         [56]byte
	armed     atomic.Int64
	_         [56]byte
	behind    atomic.Int64
	maxBehind atomic.Int64
	_         [48]byte
}

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Wheel exposes the shard's timer wheel. It is shard-owned: call only from
// the shard goroutine (inside a Submitted func or a timer callback), or
// before Start / after Stop.
func (s *Shard) Wheel() *Wheel { return s.wheel }

// Now reads the group clock.
func (s *Shard) Now() qstate.Time { return s.now() }

// Submit queues fn for execution on the shard goroutine and returns true,
// or false if the shard has stopped. It blocks while the run queue is full
// — backpressure, not unbounded growth — and must therefore not be called
// from the shard's own goroutine (shard-local code reaches the wheel
// directly instead).
func (s *Shard) Submit(fn func()) bool {
	select {
	case <-s.stopc:
		// Checked first: a buffered queue would otherwise win the select
		// against an already-closed stop channel at random.
		return false
	default:
	}
	select {
	case s.runq <- fn:
		return true
	case <-s.stopc:
		return false
	}
}

// Service runs one event-loop pass at time now: drain the run queue, then
// advance the wheel, firing due timers. The shard loop calls it every
// driver tick; manual-mode tests call it directly with simulated
// timestamps for deterministic shard-logic tests.
//
//e2e:hotpath
func (s *Shard) Service(now qstate.Time) {
	for {
		select {
		case fn := <-s.runq:
			fn()
			continue
		default:
		}
		break
	}
	behind := s.wheel.TicksUntil(now) - 1
	if behind < 0 {
		behind = 0
	}
	s.behind.Store(behind)
	if behind > s.maxBehind.Load() {
		s.maxBehind.Store(behind)
	}
	s.wheel.Advance(now)
	s.services.Add(1)
	s.fired.Store(s.wheel.fired)
	s.armed.Store(int64(s.wheel.armed))
}

// Stats returns the shard's counters from their atomic mirrors.
func (s *Shard) Stats() Stats {
	return Stats{
		Services:  s.services.Load(),
		Fired:     s.fired.Load(),
		Armed:     s.armed.Load(),
		Behind:    s.behind.Load(),
		MaxBehind: s.maxBehind.Load(),
		RunQueue:  len(s.runq),
	}
}

// loop is the shard's event loop: one driver ticker multiplexing every
// timer on the shard through the wheel, plus run-queue wakes. On stop it
// services once more so queued work lands before Stop returns.
func (s *Shard) loop() {
	defer close(s.done)
	//lint:ignore e2elint/pertickerconn one driver ticker per shard is the design: the wheel multiplexes every per-connection schedule onto it
	tk := time.NewTicker(s.tick)
	defer tk.Stop()
	for {
		select {
		case <-s.stopc:
			s.Service(s.now())
			return
		case fn := <-s.runq:
			fn()
			s.Service(s.now())
		case <-tk.C:
			s.Service(s.now())
		}
	}
}
