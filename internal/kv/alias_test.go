package kv

import (
	"bytes"
	"strconv"
	"testing"
	"time"

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
	if got := run(e, "GET", "k"); got != "$"+strconv.Itoa(len(long))+"\r\n"+long+"\r\n" {
		t.Fatalf("GET after a longer SET = %d bytes", len(got))
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

// SET grows into whatever capacity an earlier in-place SET left behind; the
// bytes of the longer value that used to be there must not come back.
func TestAppendAfterInPlaceSet(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "SET", "k", "abcdefgh")
	run(e, "SET", "k", "xy")
	first, _ := e.Store().Get("k")
	if got := run(e, "SET", "k", "xyz"); got != "+OK\r\n" {
		t.Fatalf("SET = %q", got)
	}
	if got := run(e, "GET", "k"); got != "$3\r\nxyz\r\n" {
		t.Fatalf("GET after a longer in-place SET = %q", got)
	}
	if second, _ := e.Store().Get("k"); &first[0] != &second[0] {
		t.Fatal("a value that fits the buffer did not reuse it")
	}
	run(e, "SET", "k", "0123456789abcdef0123456789abcdef") // longer than the buffer
	run(e, "SET", "k", "!")
	run(e, "SET", "k", "!!")
	if got := run(e, "GET", "k"); got != "$2\r\n!!\r\n" {
		t.Fatalf("GET = %q", got)
	}
}

func TestMGetAfterSet(t *testing.T) {
	e, _ := newTestEngine()
	run(e, "SET", "a", "1111")
	run(e, "SET", "b", "2222")
	run(e, "SET", "a", "33") // in place
	if got := run(e, "MGET", "a", "b", "missing", "a"); got != "*4\r\n$2\r\n33\r\n$4\r\n2222\r\n$-1\r\n$2\r\n33\r\n" {
		t.Fatalf("MGET = %q", got)
	}
}

// SET clears the TTL of the key it overwrites in place, like a SET that
// builds a new entry, and gives it the new one.
func TestInPlaceSetClearsTTLAndKind(t *testing.T) {
	e, c := newTestEngine()
	run(e, "SET", "k", "v1", "EX", "10")
	run(e, "SET", "k", "v2")
	c.now += time.Hour
	if got := run(e, "GET", "k"); got != "$2\r\nv2\r\n" {
		t.Fatalf("GET after plain SET over a key with a TTL = %q", got)
	}
	run(e, "SET", "k", "v3", "PX", "1500")
	c.now += 1500*time.Millisecond - 1
	if got := run(e, "GET", "k"); got != "$2\r\nv3\r\n" {
		t.Fatalf("GET before PX ran out = %q", got)
	}
	c.now++
	if got := run(e, "GET", "k"); got != "$-1\r\n" {
		t.Fatalf("GET of an expired key = %q", got)
	}
	if len(e.Store().m) != 0 {
		t.Fatalf("the expired key was not reaped: %d entries", len(e.Store().m))
	}
}
