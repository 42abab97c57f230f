// Package kv is the mini-Redis substrate: an in-memory key-value store
// speaking RESP2, with the command surface the paper's evaluation workloads
// need (SET/GET with 16 B keys and 16 KiB values, §4) plus enough of the
// usual command set to be a usable server. It runs both inside the
// simulator (event-driven, SimServer) and over real sockets (cmd/kvserver).
package kv

import (
	"sort"
	"strconv"
	"time"
)

// Clock supplies the current time since an arbitrary epoch; virtual inside
// the simulator, wall-clock outside. It drives TTL expiry.
type Clock func() time.Duration

// Store is an in-memory string keyspace with per-key TTLs. It is not safe
// for concurrent use; the real-socket server serializes access (as Redis
// itself does with its single-threaded command loop).
type Store struct {
	clock Clock
	m     map[string]*entry

	expired uint64
}

// Kind is a value's Redis type.
type Kind uint8

// Value kinds.
const (
	KindNone Kind = iota
	KindString
	KindHash
	KindList
)

// String names the kind the way Redis's TYPE command does.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindHash:
		return "hash"
	case KindList:
		return "list"
	}
	return "none"
}

type entry struct {
	key      string
	kind     Kind
	val      []byte
	hash     map[string][]byte
	list     [][]byte
	expireAt time.Duration // 0 = no expiry
}

// NewStore returns an empty store. A nil clock panics.
func NewStore(clock Clock) *Store {
	if clock == nil {
		panic("kv: nil clock")
	}
	return &Store{clock: clock, m: make(map[string]*entry)}
}

// live fetches the entry if present and unexpired, or nil, lazily reaping
// an expired one (Redis-style lazy expiry).
func (s *Store) live(key string) *entry { return s.alive(s.m[key]) }

// find is live for the command path: looking up a []byte key builds no string.
//
//e2e:hotpath
func (s *Store) find(key []byte) *entry { return s.alive(s.m[string(key)]) }

func (s *Store) alive(e *entry) *entry {
	if e != nil && e.expireAt != 0 && s.clock() >= e.expireAt {
		delete(s.m, e.key)
		s.expired++
		return nil
	}
	return e
}

// typed fetches the live entry under key, creating an empty one of the given
// kind if asked to. The commands of one kind assume the engine has answered
// WRONGTYPE for a key of another; finding one means that guard is missing.
func (s *Store) typed(key string, kind Kind, create bool) *entry {
	e := s.live(key)
	if e == nil && create {
		e = &entry{key: key, kind: kind}
		s.m[key] = e
	}
	if e != nil && e.kind != kind {
		panic("kv: " + kind.String() + " operation on a key of another kind (engine guard missing)")
	}
	return e
}

// Kind reports the live value's type (KindNone when missing).
func (s *Store) Kind(key string) Kind {
	if e := s.live(key); e != nil {
		return e.kind
	}
	return KindNone
}

// Set stores a string value under key with optional ttl (0 = no expiry),
// overwriting any previous value of any kind (as Redis SET does). The store
// takes ownership of value and may later overwrite it in place.
func (s *Store) Set(key string, value []byte, ttl time.Duration) {
	e := &entry{key: key, kind: KindString, val: value}
	if ttl > 0 {
		e.expireAt = s.clock() + ttl
	}
	s.m[key] = e
}

// overwrite is Set for the command path when key already holds a string whose
// buffer fits value: the bytes are copied over the old ones and no key
// string, entry or buffer is built. In every other case it does nothing and
// reports false.
//
//e2e:hotpath
func (s *Store) overwrite(key, value []byte, ttl time.Duration) bool {
	e := s.m[string(key)]
	if e == nil || e.kind != KindString || cap(e.val) < len(value) {
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

// Get returns the string value and whether the key exists as a string.
// Callers that must distinguish "missing" from "wrong type" check Kind
// first, as the command engine does. The slice is the store's own buffer:
// it is valid until the next write to key, which may overwrite it in place.
func (s *Store) Get(key string) ([]byte, bool) {
	if e := s.live(key); e != nil && e.kind == KindString {
		return e.val, true
	}
	return nil, false
}

// Del removes keys, returning how many existed.
func (s *Store) Del(keys ...string) int64 {
	var n int64
	for _, k := range keys {
		if s.live(k) != nil {
			delete(s.m, k)
			n++
		}
	}
	return n
}

// Exists counts how many of the given keys exist (with multiplicity, like
// Redis).
func (s *Store) Exists(keys ...string) int64 {
	var n int64
	for _, k := range keys {
		if s.live(k) != nil {
			n++
		}
	}
	return n
}

// IncrBy adds delta to the integer stored at key (0 if missing), returning
// the new value; ok is false if the current value is not an integer. The key
// keeps any TTL it has, as in Redis.
func (s *Store) IncrBy(key string, delta int64) (int64, bool) {
	if e := s.live(key); e != nil {
		v, err := strconv.ParseInt(string(e.val), 10, 64)
		if err != nil {
			return 0, false
		}
		delta += v
	}
	e := s.typed(key, KindString, true)
	e.val = strconv.AppendInt(e.val[:0], delta, 10)
	return delta, true
}

// Append appends data to the value at key (creating it), returning the new
// length.
func (s *Store) Append(key string, data []byte) int64 {
	e := s.typed(key, KindString, true)
	e.val = append(e.val, data...)
	return int64(len(e.val))
}

// Strlen returns the value length (0 for a missing key).
func (s *Store) Strlen(key string) int64 {
	v, _ := s.Get(key)
	return int64(len(v))
}

// Expire sets a ttl on an existing key; it reports whether the key existed.
func (s *Store) Expire(key string, ttl time.Duration) bool {
	e := s.live(key)
	if e == nil {
		return false
	}
	if ttl <= 0 {
		delete(s.m, key)
		return true
	}
	e.expireAt = s.clock() + ttl
	return true
}

// TTL returns the remaining lifetime: (-2, false) if missing, (-1, true)
// if persistent, otherwise (ttl, true).
func (s *Store) TTL(key string) (time.Duration, bool) {
	e := s.live(key)
	if e == nil {
		return -2, false
	}
	if e.expireAt == 0 {
		return -1, true
	}
	return e.expireAt - s.clock(), true
}

// Persist removes the TTL from key, reporting whether a TTL was removed.
func (s *Store) Persist(key string) bool {
	e := s.live(key)
	if e == nil || e.expireAt == 0 {
		return false
	}
	e.expireAt = 0
	return true
}

// Keys returns the live keys matching a Redis-style glob pattern ('*' and
// '?' wildcards), sorted for determinism.
func (s *Store) Keys(pattern string) []string {
	var out []string
	for k, e := range s.m {
		if s.alive(e) != nil && globMatch(pattern, k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// globMatch implements the '*'/'?' subset of Redis glob matching.
func globMatch(pattern, s string) bool {
	// Iterative wildcard matcher with single-star backtracking.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// ---- hashes and lists ----

// HSet sets field in the hash at key, reporting whether the field is new.
func (s *Store) HSet(key, field string, value []byte) bool {
	e := s.typed(key, KindHash, true)
	if e.hash == nil {
		e.hash = make(map[string][]byte)
	}
	_, existed := e.hash[field]
	e.hash[field] = value
	return !existed
}

// HGet fetches a hash field.
func (s *Store) HGet(key, field string) ([]byte, bool) {
	e := s.typed(key, KindHash, false)
	if e == nil {
		return nil, false
	}
	v, ok := e.hash[field]
	return v, ok
}

// HDel removes fields, returning how many existed; an emptied hash is
// removed, like Redis.
func (s *Store) HDel(key string, fields ...string) int64 {
	e := s.typed(key, KindHash, false)
	if e == nil {
		return 0
	}
	before := len(e.hash)
	for _, f := range fields {
		delete(e.hash, f)
	}
	if len(e.hash) == 0 {
		delete(s.m, key)
	}
	return int64(before - len(e.hash))
}

// HLen returns the number of fields.
func (s *Store) HLen(key string) int64 {
	if e := s.typed(key, KindHash, false); e != nil {
		return int64(len(e.hash))
	}
	return 0
}

// HGetAll returns field/value pairs sorted by field for determinism.
func (s *Store) HGetAll(key string) [][2][]byte {
	e := s.typed(key, KindHash, false)
	if e == nil {
		return nil
	}
	fields := make([]string, 0, len(e.hash))
	for f := range e.hash {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	out := make([][2][]byte, len(fields))
	for i, f := range fields {
		out[i] = [2][]byte{[]byte(f), e.hash[f]}
	}
	return out
}

// LPush prepends values (leftmost argument ends up at the head last, like
// Redis), returning the new length.
func (s *Store) LPush(key string, values ...[]byte) int64 {
	e := s.typed(key, KindList, true)
	for _, v := range values {
		e.list = append([][]byte{v}, e.list...)
	}
	return int64(len(e.list))
}

// RPush appends values, returning the new length.
func (s *Store) RPush(key string, values ...[]byte) int64 {
	e := s.typed(key, KindList, true)
	e.list = append(e.list, values...)
	return int64(len(e.list))
}

// pop removes and returns the head (or the tail when head is false) — LPOP
// and RPOP. Emptied lists vanish.
func (s *Store) pop(key string, head bool) ([]byte, bool) {
	e := s.typed(key, KindList, false)
	if e == nil || len(e.list) == 0 {
		return nil, false
	}
	v, last := e.list[0], len(e.list)-1
	if head {
		e.list = e.list[1:]
	} else {
		v, e.list = e.list[last], e.list[:last]
	}
	if len(e.list) == 0 {
		delete(s.m, key)
	}
	return v, true
}

// LLen returns the list length.
func (s *Store) LLen(key string) int64 {
	if e := s.typed(key, KindList, false); e != nil {
		return int64(len(e.list))
	}
	return 0
}

// LRange returns elements start..stop inclusive with Redis's negative-index
// semantics.
func (s *Store) LRange(key string, start, stop int64) [][]byte {
	e := s.typed(key, KindList, false)
	if e == nil {
		return nil
	}
	n := int64(len(e.list))
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || start >= n {
		return nil
	}
	return append([][]byte(nil), e.list[start:stop+1]...)
}

// DBSize returns the number of live keys, reaping expired ones it touches.
func (s *Store) DBSize() int64 {
	var n int64
	for _, e := range s.m {
		if s.alive(e) != nil {
			n++
		}
	}
	return n
}

// FlushAll removes every key.
func (s *Store) FlushAll() {
	s.m = make(map[string]*entry)
}

// Expired returns how many keys lazy expiry has reaped.
func (s *Store) Expired() uint64 { return s.expired }
