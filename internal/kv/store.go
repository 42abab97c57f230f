// Package kv is the mini-Redis substrate: an in-memory string keyspace
// speaking RESP2 that serves the traffic the paper's evaluation workloads
// send (SET/GET with 16 B keys and 16 KiB values, §4), plus MGET, PING and
// the handshake no-ops standard clients send on connect. It imports no
// transport: tcpsim.SimServer serves it inside the simulator and
// realtcp.Server over real sockets (cmd/kvserver).
package kv

import "time"

// Clock supplies the current time since an arbitrary epoch; virtual inside
// the simulator, monotonic wall-clock outside. It drives TTL expiry.
type Clock func() time.Duration

// Store is an in-memory string keyspace with per-key TTLs. It is not safe
// for concurrent use; the real-socket server serializes access (as Redis
// itself does with its single-threaded command loop).
type Store struct {
	clock Clock
	m     map[string]*entry
}

type entry struct {
	key      string
	val      []byte
	expireAt time.Duration // 0 = no expiry
}

// NewStore returns an empty store. A nil clock panics.
func NewStore(clock Clock) *Store {
	if clock == nil {
		panic("kv: nil clock")
	}
	return &Store{clock: clock, m: make(map[string]*entry)}
}

// find fetches the entry under key if present and unexpired, or nil, lazily
// reaping an expired one (Redis-style lazy expiry). Looking up a []byte key
// builds no string.
//
//e2e:hotpath
func (s *Store) find(key []byte) *entry {
	e := s.m[string(key)]
	if e != nil && e.expireAt != 0 && s.clock() >= e.expireAt {
		delete(s.m, e.key)
		return nil
	}
	return e
}

// Set stores value under key with optional ttl (0 = no expiry), replacing
// any previous value. The store takes ownership of value and may later
// overwrite it in place.
func (s *Store) Set(key string, value []byte, ttl time.Duration) {
	e := &entry{key: key, val: value}
	if ttl > 0 {
		e.expireAt = s.clock() + ttl
	}
	s.m[key] = e
}

// overwrite is Set for the command path when key already holds a buffer
// that fits value: the bytes are copied over the old ones and no key string,
// entry or buffer is built. In every other case it does nothing and reports
// false.
//
//e2e:hotpath
func (s *Store) overwrite(key, value []byte, ttl time.Duration) bool {
	e := s.m[string(key)]
	if e == nil || cap(e.val) < len(value) {
		return false
	}
	e.val = e.val[:len(value)]
	copy(e.val, value)
	e.expireAt = 0
	if ttl > 0 {
		e.expireAt = s.clock() + ttl
	}
	return true
}

// Get returns the value under key and whether the key exists. The slice is
// the store's own buffer: it is valid until the next write to key, which may
// overwrite it in place.
func (s *Store) Get(key string) ([]byte, bool) {
	if e := s.find([]byte(key)); e != nil {
		return e.val, true
	}
	return nil, false
}
