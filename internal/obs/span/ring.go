package span

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// slot is one value slot: a record stored by copy under a per-slot mutex,
// with the sequence it was pushed under. A writer copies in, a reader copies
// out, and nobody holds more than one slot's lock at a time.
type slot[T any] struct {
	mu  sync.Mutex
	seq uint64
	ok  bool // a record has been stored here
	v   T
}

// ringShard is one shard's sub-ring: an atomic sequence claim (padded to a
// cache line so concurrent shards never false-share) over a fixed slot
// array.
type ringShard[T any] struct {
	next  atomic.Uint64
	_     [56]byte
	slots []slot[T]
}

// Ring is a sharded fixed-capacity ring of records — spans here, decision
// records in obs (obs.Ring). Pushes claim a slot with the owning shard's
// atomic counter and store by value, so publishing a record allocates
// nothing (the push side sits on the engine tick and on completion paths,
// //e2e:hotpath) and concurrent writers on different shards contend only
// within a shard.
// Multi-writer pushes within one shard are safe: a laggard that was lapped
// can never overwrite a newer record. Readers lock one slot at a time for
// the copy-out, so a reader can stall a writer only on that single slot.
type Ring[T any] struct {
	shards []ringShard[T]
}

// NewRing returns a span ring of `shards` sub-rings (<= 0: 1) holding the
// last `perShard` spans each (<= 0: 1024).
func NewRing(shards, perShard int) *Ring[Span] { return NewRingOf[Span](shards, perShard) }

// NewRingOf is NewRing for any record type.
func NewRingOf[T any](shards, perShard int) *Ring[T] {
	if shards <= 0 {
		shards = 1
	}
	if perShard <= 0 {
		perShard = 1024
	}
	r := &Ring[T]{shards: make([]ringShard[T], shards)}
	for i := range r.shards {
		r.shards[i].slots = make([]slot[T], perShard)
	}
	return r
}

// Shards returns the shard count.
func (r *Ring[T]) Shards() int { return len(r.shards) }

// Cap returns the ring's total capacity.
func (r *Ring[T]) Cap() int { return len(r.shards) * len(r.shards[0].slots) }

// Len returns how many records have ever been pushed, across all shards.
func (r *Ring[T]) Len() uint64 {
	var t uint64
	for i := range r.shards {
		t += r.shards[i].next.Load()
	}
	return t
}

// Push publishes a copy of *v into shard (modulo the shard count). It first
// stores the record's per-shard sequence number into *seq, which callers
// point at v's own sequence field so the stored copy carries its position.
// The caller keeps ownership of v and may reuse it immediately (the
// scratch-record pattern).
//
//e2e:hotpath
func (r *Ring[T]) Push(shard int, v *T, seq *uint64) {
	sh := &r.shards[shard%len(r.shards)]
	n := sh.next.Add(1) - 1
	*seq = n
	sl := &sh.slots[n%uint64(len(sh.slots))]
	sl.mu.Lock()
	// A slower concurrent pusher may reach a slot after the writer that
	// lapped it; never let a stale record overwrite a newer one.
	if !sl.ok || sl.seq < n {
		sl.v, sl.seq, sl.ok = *v, n, true
	}
	sl.mu.Unlock()
}

// ShardLast returns up to n of shard i's most recent records, oldest first,
// copied out by value. Records overwritten mid-read are skipped (their slot
// then holds a newer record, filtered by sequence).
func (r *Ring[T]) ShardLast(i, n int) []T {
	if i < 0 || i >= len(r.shards) {
		return nil
	}
	sh := &r.shards[i]
	head := sh.next.Load()
	if n <= 0 || head == 0 {
		return nil
	}
	n = int(min(uint64(n), head, uint64(len(sh.slots))))
	out := make([]T, 0, n)
	for seq := head - uint64(n); seq < head; seq++ {
		sl := &sh.slots[seq%uint64(len(sh.slots))]
		sl.mu.Lock()
		v, ok := sl.v, sl.ok && sl.seq == seq
		sl.mu.Unlock()
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// Last returns up to n of the most recent records per shard, concatenated
// in shard order (oldest first within a shard) — the stable export order.
func (r *Ring[T]) Last(n int) []T {
	var out []T
	for i := range r.shards {
		out = append(out, r.ShardLast(i, n)...)
	}
	return out
}

// WriteJSONL writes Last(n) as JSON Lines — the /debug/decisions and
// /debug/spans format.
func (r *Ring[T]) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, v := range r.Last(n) {
		if err := enc.Encode(&v); err != nil {
			return err
		}
	}
	return nil
}
