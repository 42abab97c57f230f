package kv

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/resp"
)

// manual clock for store tests
type tclock struct{ now time.Duration }

func (c *tclock) fn() Clock { return func() time.Duration { return c.now } }

func newTestStore() (*Store, *tclock) {
	c := &tclock{}
	return NewStore(c.fn()), c
}

func TestStoreSetGet(t *testing.T) {
	s, _ := newTestStore()
	s.Set("k", []byte("v"), 0)
	got, ok := s.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q,%v", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

// TestStoreOverwriteCopiesExactly: an in-place overwrite writes exactly the
// value's bytes, whatever the source's alignment and at the lengths either
// side of copyValue's piece boundaries.
func TestStoreOverwriteCopiesExactly(t *testing.T) {
	src := make([]byte, 16384+16)
	for i := range src {
		src[i] = byte(i*7 + i>>8)
	}
	s, _ := newTestStore()
	key := []byte("key0000000000000")
	for _, n := range []int{1, 2046, 2047, 2048, 4095, 16384} {
		for off := 0; off < 16; off++ {
			buf := bytes.Repeat([]byte{0xA5}, 16384+1)
			s.Set(string(key), buf, 0)
			value := src[off : off+n]
			if !s.overwrite(key, value, 0) {
				t.Fatalf("len %d offset %d: overwrite refused a buffer that fits", n, off)
			}
			if got, _ := s.Get(string(key)); !bytes.Equal(got, value) {
				t.Fatalf("len %d offset %d: the stored value differs from the one written", n, off)
			}
			if tail := buf[n:]; bytes.Count(tail, []byte{0xA5}) != len(tail) {
				t.Fatalf("len %d offset %d: the copy wrote past the value", n, off)
			}
		}
	}
}

// BenchmarkStoreOverwrite times a 16 KiB SET's in-place copy from a source at
// offset 0 and at offset 44, where a SET's value starts in its request.
func BenchmarkStoreOverwrite(b *testing.B) {
	for _, off := range []int{0, 44} {
		b.Run(fmt.Sprintf("offset=%d", off), func(b *testing.B) {
			s, _ := newTestStore()
			key := []byte("key0000000000000")
			s.Set(string(key), make([]byte, 16384), 0)
			value := make([]byte, 16384+64)[off : off+16384]
			b.SetBytes(int64(len(value)))
			for i := 0; i < b.N; i++ {
				s.overwrite(key, value, 0)
			}
		})
	}
}

func TestStoreTTLExpiry(t *testing.T) {
	s, c := newTestStore()
	s.Set("k", []byte("v"), time.Second)
	c.now += time.Second - 1
	if _, ok := s.Get("k"); !ok {
		t.Fatal("key missing before expiry")
	}
	c.now++
	if _, ok := s.Get("k"); ok {
		t.Fatal("key alive after expiry")
	}
	if len(s.m) != 0 {
		t.Fatalf("the expired key was not reaped: %d entries", len(s.m))
	}
}

// A key set without a positive ttl never expires.
func TestStorePersistentTTL(t *testing.T) {
	s, c := newTestStore()
	s.Set("k", []byte("v"), 0)
	s.Set("neg", []byte("v"), -time.Second)
	c.now += 365 * 24 * time.Hour
	for _, k := range []string{"k", "neg"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %q without a ttl expired", k)
		}
	}
}

// exec runs a command line through a fresh engine.
func exec(t *testing.T, e *Engine, args ...string) resp.Value {
	t.Helper()
	var p resp.Parser
	p.Feed(resp.Command(args...))
	v, ok, err := p.Next()
	if !ok || err != nil {
		t.Fatalf("bad test command: %v %v", ok, err)
	}
	return e.Execute(v)
}

func newTestEngine() (*Engine, *tclock) {
	s, c := newTestStore()
	return NewEngine(s), c
}

// contents renders the keyspace, sorted, with each key's expiry.
func contents(s *Store) string {
	var keys []string
	for k, en := range s.m {
		keys = append(keys, fmt.Sprintf("%s=%q@%v", k, en.val, en.expireAt))
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// unserved runs commands the engine does not serve and requires each to be
// answered as an unknown command, leaving the keyspace as it was.
func unserved(t *testing.T, e *Engine, cmds ...[]string) {
	t.Helper()
	before := contents(e.store)
	for _, args := range cmds {
		want := "-ERR unknown command '" + strings.ToLower(args[0]) + "'\r\n"
		if got := run(e, args...); got != want {
			t.Errorf("%q = %q, want %q", args, got, want)
		}
	}
	if after := contents(e.store); after != before {
		t.Errorf("unknown commands changed the keyspace to %s, was %s", after, before)
	}
}

func TestEnginePingEcho(t *testing.T) {
	e, _ := newTestEngine()
	if got := exec(t, e, "PING"); got.String() != "+PONG" {
		t.Fatalf("PING = %v", got)
	}
	if got := exec(t, e, "ping", "hello"); string(got.Str) != "hello" {
		t.Fatalf("PING msg = %v", got)
	}
	if got := exec(t, e, "PING", "a", "b"); !got.IsError() {
		t.Fatalf("PING with two arguments = %v", got)
	}
	unserved(t, e, []string{"ECHO", "x"})
}

func TestEngineSetGetDel(t *testing.T) {
	e, _ := newTestEngine()
	if got := exec(t, e, "SET", "k", "v"); got.String() != "+OK" {
		t.Fatalf("SET = %v", got)
	}
	if got := exec(t, e, "GET", "k"); string(got.Str) != "v" {
		t.Fatalf("GET = %v", got)
	}
	if got := exec(t, e, "GET", "nope"); !got.Null {
		t.Fatalf("GET missing = %v", got)
	}
	unserved(t, e, []string{"DEL", "k", "nope"}, []string{"del", "k"})
}

func TestEngineSetWithExpiry(t *testing.T) {
	e, c := newTestEngine()
	exec(t, e, "SET", "k", "v", "PX", "500")
	c.now += 400 * time.Millisecond
	if got := exec(t, e, "GET", "k"); got.Null {
		t.Fatal("key expired early")
	}
	c.now += 200 * time.Millisecond
	if got := exec(t, e, "GET", "k"); !got.Null {
		t.Fatal("key alive past PX")
	}
	for _, bad := range [][]string{
		{"SET", "k", "v", "EX", "nope"}, {"SET", "k", "v", "EX", "0"}, {"SET", "k", "v", "px", "-5"},
		{"SET", "k", "v", "PX"}, {"SET", "k", "v", "BOGUS"},
	} {
		if got := exec(t, e, bad...); !got.IsError() {
			t.Fatalf("%q accepted: %v", bad, got)
		}
	}
	if got := exec(t, e, "GET", "k"); !got.Null {
		t.Fatalf("a rejected SET stored its value: %v", got)
	}
}

// A number is a string like any other: the counter commands are not served.
func TestEngineCounters(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "n", "10")
	unserved(t, e, []string{"INCR", "n"}, []string{"DECR", "n"}, []string{"INCRBY", "n", "5"}, []string{"DECRBY", "n", "5"})
	if got := exec(t, e, "GET", "n"); string(got.Str) != "10" {
		t.Fatalf("GET n = %v", got)
	}
}

func TestEngineMSetMGet(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "a", "1")
	exec(t, e, "SET", "b", "2")
	unserved(t, e, []string{"MSET", "a", "3", "b", "4"})
	got := exec(t, e, "MGET", "a", "nope", "b")
	if len(got.Array) != 3 {
		t.Fatalf("MGET = %v", got)
	}
	if string(got.Array[0].Str) != "1" || !got.Array[1].Null || string(got.Array[2].Str) != "2" {
		t.Fatalf("MGET values = %v", got)
	}
}

// The only TTL a key has is the one its last SET gave it.
func TestEngineTTLCommands(t *testing.T) {
	e, c := newTestEngine()
	exec(t, e, "SET", "k", "v", "EX", "10")
	unserved(t, e, []string{"EXPIRE", "k", "1"}, []string{"PEXPIRE", "k", "1"}, []string{"TTL", "k"}, []string{"PTTL", "k"})
	c.now += 10*time.Second - 1
	if got := exec(t, e, "GET", "k"); got.Null {
		t.Fatal("key expired before its EX")
	}
	c.now++
	if got := exec(t, e, "GET", "k"); !got.Null {
		t.Fatalf("key alive past its EX: %v", got)
	}
}

func TestEngineStringOps(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "k", "abc")
	unserved(t, e, []string{"APPEND", "k", "d"}, []string{"STRLEN", "k"})
	if got := exec(t, e, "GET", "k"); string(got.Str) != "abc" {
		t.Fatalf("GET = %v", got)
	}
}

func TestEngineAdminCommands(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "k", "v")
	unserved(t, e, []string{"DBSIZE"}, []string{"FLUSHALL"})
	for _, c := range [][]string{{"COMMAND"}, {"CONFIG", "GET", "save"}, {"client", "setname", "x"}, {"INFO"}} {
		if got := exec(t, e, c...); got.String() != "+OK" {
			t.Fatalf("%q = %v", c, got)
		}
	}
	if got := exec(t, e, "GET", "k"); string(got.Str) != "v" {
		t.Fatalf("GET after the handshake = %v", got)
	}
}

func TestEngineErrors(t *testing.T) {
	e, _ := newTestEngine()
	unserved(t, e, []string{"NOSUCHCMD"}, []string{"AVeryLongCommandName", "k"}, []string{"PINGPING"})
	for _, args := range [][]string{
		{"GET"}, {"GET", "a", "b"}, {"SET", "k"}, {"MGET"}, {"PING", "a", "b"},
	} {
		if got := exec(t, e, args...); !got.IsError() || !strings.Contains(string(got.Str), "wrong number of arguments") {
			t.Errorf("%v = %v, want an arity error", args, got)
		}
	}
}

func TestEngineRejectsNonArrayInput(t *testing.T) {
	e, _ := newTestEngine()
	if got := e.Execute(resp.Int(5)); !got.IsError() {
		t.Fatalf("non-array accepted: %v", got)
	}
	if got := e.Execute(resp.Value{Type: resp.Array}); !got.IsError() {
		t.Fatalf("empty array accepted: %v", got)
	}
	bad := resp.Value{Type: resp.Array, Array: []resp.Value{resp.Int(1)}}
	if got := e.Execute(bad); !got.IsError() {
		t.Fatalf("non-bulk args accepted: %v", got)
	}
}

func TestEngineLargeValueRoundTrip(t *testing.T) {
	e, _ := newTestEngine()
	val := bytes.Repeat([]byte("v"), 16384)
	var p resp.Parser
	p.Feed(resp.AppendCommand(nil, []byte("SET"), []byte("bigkey0000000000"), val))
	cmd, _, _ := p.Next()
	if got := e.Execute(cmd); got.String() != "+OK" {
		t.Fatalf("big SET = %v", got)
	}
	if got := exec(t, e, "GET", "bigkey0000000000"); len(got.Str) != 16384 {
		t.Fatalf("big GET = %d bytes", len(got.Str))
	}
}

func TestEngineSetNXGetSetGetDel(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "k", "v1")
	unserved(t, e, []string{"SETNX", "k", "v2"}, []string{"SETNX", "fresh", "x"},
		[]string{"GETSET", "k", "v3"}, []string{"GETDEL", "k"})
	if got := exec(t, e, "MGET", "k", "fresh"); len(got.Array) != 2 || string(got.Array[0].Str) != "v1" || !got.Array[1].Null {
		t.Fatalf("MGET k fresh = %v", got)
	}
}

// PERSIST does not take a key's TTL away, and TYPE is not served: every key
// holds a string.
func TestEnginePersistAndType(t *testing.T) {
	e, c := newTestEngine()
	exec(t, e, "SET", "k", "v", "EX", "10")
	unserved(t, e, []string{"PERSIST", "k"}, []string{"TYPE", "k"})
	c.now += time.Hour
	if got := exec(t, e, "GET", "k"); !got.Null {
		t.Fatalf("key alive past its EX: %v", got)
	}
}

func TestEngineKeysGlob(t *testing.T) {
	e, _ := newTestEngine()
	for _, k := range []string{"user:1", "user:2", "session:9"} {
		exec(t, e, "SET", k, "v")
	}
	unserved(t, e, []string{"KEYS", "user:*"}, []string{"KEYS", "*"})
}

// The hash commands are not served, and no hash is made: the key stays free
// for a string.
func TestHashCommands(t *testing.T) {
	e, _ := newTestEngine()
	unserved(t, e, []string{"HSET", "h", "f1", "v1"}, []string{"hset", "h", "f", "v"}, []string{"HGET", "h", "f1"},
		[]string{"HDEL", "h", "f1"}, []string{"HLEN", "h"}, []string{"HGETALL", "h"})
	if got := exec(t, e, "GET", "h"); !got.Null {
		t.Fatalf("GET h = %v", got)
	}
	exec(t, e, "SET", "h", "v")
	if got := exec(t, e, "GET", "h"); string(got.Str) != "v" {
		t.Fatalf("GET h = %v", got)
	}
}

func TestListCommands(t *testing.T) {
	e, _ := newTestEngine()
	unserved(t, e, []string{"RPUSH", "l", "b", "c"}, []string{"LPUSH", "l", "a"}, []string{"LLEN", "l"},
		[]string{"LRANGE", "l", "0", "-1"}, []string{"LPOP", "l"}, []string{"RPOP", "l"})
	if got := exec(t, e, "GET", "l"); !got.Null {
		t.Fatalf("GET l = %v", got)
	}
}

// One keyspace of strings: no command answers WRONGTYPE, and the commands of
// other kinds are unknown even on a string key.
func TestWrongTypeGuards(t *testing.T) {
	e, _ := newTestEngine()
	exec(t, e, "SET", "s", "v")
	unserved(t, e, []string{"HGET", "s", "f"}, []string{"LPUSH", "s", "v"}, []string{"INCR", "s"})
	for _, args := range [][]string{{"GET", "s"}, {"MGET", "s", "s"}, {"SET", "s", "w"}} {
		if got := exec(t, e, args...); got.IsError() {
			t.Errorf("%q = %v", args, got)
		}
	}
}
