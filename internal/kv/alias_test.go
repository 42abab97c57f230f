package kv

import (
	"bytes"
	"strconv"
	"testing"

	"e2ebatch/internal/resp"
)

// run executes one command on the view path and returns the reply encoded at
// once, as both servers do.
func run(e *Engine, args ...string) string {
	return string(resp.AppendValue(nil, e.Exec(argv(args...))))
}

func argv(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// SET overwrites the bytes of an existing string in place, so the slice a
// GET returned is good only until the next write to its key.
func TestSetOverwritesInPlace(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "SET", "k", "aaaaaaaa")
	first, _ := e.Store().Get("k")
	run(e, "SET", "k", "bbbb") // shorter: fits
	second, _ := e.Store().Get("k")
	if &first[0] != &second[0] {
		t.Fatal("a shorter value did not reuse the key's buffer")
	}
	if string(second) != "bbbb" || string(first) != "bbbbaaaa" {
		t.Fatalf("after SET of a shorter value: %q (old view %q)", second, first)
	}
	if got := run(e, "GET", "k"); got != "$4\r\nbbbb\r\n" {
		t.Fatalf("GET after shorter SET = %q", got)
	}
	long := string(bytes.Repeat([]byte("c"), 4*cap(first)))
	run(e, "SET", "k", long) // longer than the buffer: a new one
	third, _ := e.Store().Get("k")
	if string(third) != long || string(second) != "bbbb" {
		t.Fatalf("after SET of a longer value: %d bytes, old view %q", len(third), second)
	}
	if got := run(e, "STRLEN", "k"); got != ":"+strconv.Itoa(len(long))+"\r\n" {
		t.Fatalf("STRLEN = %q", got)
	}
}

// The store copies what SET gives it: the argument is a view of a parse
// buffer that the next read overwrites.
func TestSetCopiesItsArgument(t *testing.T) {
	e, _ := newTestEngine()
	for _, val := range []string{"first", "again"} { // insert, then overwrite
		args := argv("SET", "k", val)
		e.Exec(args)
		copy(args[1], "XXXXX")
		copy(args[2], "XXXXX")
		if got := run(e, "GET", "k"); got != "$5\r\n"+val+"\r\n" {
			t.Fatalf("GET after the argument of SET %q was reused = %q", val, got)
		}
	}
}

// Replies that carry the old value must survive the write the same command
// makes.
func TestRepliesSurviveTheirOwnWrite(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "SET", "k", "old-value")
	reply := e.Exec(argv("GETSET", "k", "new-value")) // same length: would fit in place
	if got := run(e, "GET", "k"); got != "$9\r\nnew-value\r\n" {
		t.Fatalf("GET after GETSET = %q", got)
	}
	if string(reply.Str) != "old-value" {
		t.Fatalf("GETSET reply read after the write = %q", reply.Str)
	}
	reply = e.Exec(argv("GETDEL", "k"))
	run(e, "SET", "k", "another-1")
	if string(reply.Str) != "new-value" {
		t.Fatalf("GETDEL reply read after the key was set again = %q", reply.Str)
	}
	if got := run(e, "GETSET", "k", "x"); got != "$9\r\nanother-1\r\n" {
		t.Fatalf("GETSET = %q", got)
	}
	if got := run(e, "GETSET", "fresh", "x"); got != "$-1\r\n" {
		t.Fatalf("GETSET of a missing key = %q", got)
	}
}

// APPEND grows into whatever capacity an in-place SET left behind; the bytes
// of the longer value that used to be there must not come back.
func TestAppendAfterInPlaceSet(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "SET", "k", "abcdefgh")
	run(e, "SET", "k", "xy")
	if got := run(e, "APPEND", "k", "z"); got != ":3\r\n" {
		t.Fatalf("APPEND = %q", got)
	}
	if got := run(e, "GET", "k"); got != "$3\r\nxyz\r\n" {
		t.Fatalf("GET after APPEND = %q", got)
	}
	run(e, "SET", "k", "0123456789abcdef0123456789abcdef") // longer again
	if got := run(e, "APPEND", "k", "!"); got != ":33\r\n" {
		t.Fatalf("APPEND = %q", got)
	}
	if got := run(e, "GET", "k"); got != "$33\r\n0123456789abcdef0123456789abcdef!\r\n" {
		t.Fatalf("GET = %q", got)
	}
}

func TestMGetAfterSet(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "MSET", "a", "1111", "b", "2222")
	run(e, "SET", "a", "33") // in place
	run(e, "HSET", "h", "f", "v")
	if got := run(e, "MGET", "a", "b", "h", "missing", "a"); got != "*5\r\n$2\r\n33\r\n$4\r\n2222\r\n$-1\r\n$-1\r\n$2\r\n33\r\n" {
		t.Fatalf("MGET = %q", got)
	}
}

// SET replaces a value of any kind and clears the TTL of the key it
// overwrites in place, like a SET that builds a new entry.
func TestInPlaceSetClearsTTLAndKind(t *testing.T) {
	e, c := newTestEngine()
	run(e, "SET", "k", "v1", "EX", "10")
	run(e, "SET", "k", "v2")
	if got := run(e, "TTL", "k"); got != ":-1\r\n" {
		t.Fatalf("TTL after plain SET over a key with one = %q", got)
	}
	run(e, "SET", "k", "v3", "PX", "1500")
	if got := run(e, "PTTL", "k"); got != ":1500\r\n" {
		t.Fatalf("PTTL = %q", got)
	}
	c.now += 2e9
	if got := run(e, "GET", "k"); got != "$-1\r\n" {
		t.Fatalf("GET of an expired key = %q", got)
	}
	if e.Store().Expired() != 1 {
		t.Fatalf("expired = %d", e.Store().Expired())
	}
	run(e, "LPUSH", "l", "x")
	run(e, "SET", "l", "now a string")
	if got := run(e, "TYPE", "l"); got != "+string\r\n" {
		t.Fatalf("TYPE after SET over a list = %q", got)
	}
}
