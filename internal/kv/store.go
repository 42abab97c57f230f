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
	copyValue(e.val, value)
	e.expireAt = 0
	if ttl > 0 {
		e.expireAt = s.clock() + ttl
	}
	return true
}

// copyPiece bounds the pieces copyValue copies: under the 2 KiB at which
// go1.24's memmove takes REP MOVSQ (DESIGN.md §13, "Store copy"), and a
// multiple of 16, so a 16-byte-aligned destination stays aligned piece after
// piece.
const copyPiece = 2048 - 16

// copyValue is copy(dst, src) in pieces under 2 KiB. A SET's value starts 44
// bytes into its request, off 8-byte alignment, and on Intel CPUs with ERMS
// and FSRM go1.24 copies 2 KiB or more to a 16-byte-aligned destination with
// REP MOVSQ whatever the source's alignment, and from a misaligned source
// that path runs several times slower than the AVX loop that smaller copies
// take.
//
//e2e:hotpath
func copyValue(dst, src []byte) {
	for len(src) > copyPiece {
		copy(dst[:copyPiece], src[:copyPiece])
		dst, src = dst[copyPiece:], src[copyPiece:]
	}
	copy(dst, src)
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
