package resp

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// allocated reports the bytes the call prepare returns allocates, as the
// least over five repetitions: TotalAlloc counts the whole process, so an
// allocation the runtime makes on its own during one window must not count
// against the call. prepare runs outside the window.
func allocated(prepare func() func()) uint64 {
	least := uint64(math.MaxUint64)
	var a, b runtime.MemStats
	for range 5 {
		call := prepare()
		runtime.ReadMemStats(&a)
		call()
		runtime.ReadMemStats(&b)
		least = min(least, b.TotalAlloc-a.TotalAlloc)
	}
	return least
}

// A bare array header used to reserve count elements up front: 11 bytes on
// the wire made Next allocate 686 MB, and the largest accepted count killed
// the process.
func TestArrayHeaderReservesNoMoreThanBuffered(t *testing.T) {
	for _, wire := range []string{"*10000000\r\n", "*536870912\r\n", "*536870912\r\n$1\r\na\r\n"} {
		for name, next := range map[string]func(*Parser) (bool, error){
			"Next":        func(p *Parser) (bool, error) { _, ok, err := p.Next(); return ok, err },
			"NextCommand": func(p *Parser) (bool, error) { _, ok, err := p.NextCommand(nil); return ok, err },
			"Skip":        func(p *Parser) (bool, error) { _, ok, err := p.Skip(); return ok, err },
		} {
			var ok bool
			var err error
			n := allocated(func() func() {
				var p Parser
				p.Feed([]byte(wire))
				return func() { ok, err = next(&p) }
			})
			if n > 4096 {
				t.Errorf("%s(%q) allocated %d bytes", name, wire, n)
			}
			if ok || err != nil {
				t.Errorf("%s(%q) = ok %v, err %v; want need-more", name, wire, ok, err)
			}
		}
	}
}

// TestSkipIsNextWithoutTheValue walks one stream of every reply shape a server
// sends, and the inline and nested ones it does not, with both: Skip reports
// the length of the top-level string Next builds and leaves the same bytes.
func TestSkipIsNextWithoutTheValue(t *testing.T) {
	wire := "+OK\r\n-ERR unknown command\r\n:42\r\n$5\r\nhello\r\n$0\r\n\r\n$-1\r\n" +
		"*2\r\n$1\r\na\r\n*1\r\n+b\r\n*0\r\n*-1\r\nPING now\r\n*1\r\nPING\r\n$3\r\nfo"
	want := []int{2, 19, 0, 5, 0, 0, 0, 0, 0, 0, 0}
	var byValue, bySkip Parser
	byValue.Feed([]byte(wire))
	bySkip.Feed([]byte(wire))
	for i, n := range want {
		v, ok, err := byValue.Next()
		got, sok, serr := bySkip.Skip()
		if !ok || !sok || err != nil || serr != nil {
			t.Fatalf("value %d: Next ok %v err %v, Skip ok %v err %v", i, ok, err, sok, serr)
		}
		if got != n || len(v.Str) != n || byValue.Buffered() != bySkip.Buffered() {
			t.Fatalf("value %d (%v): Skip = %d, Next's string %d, want %d; %d and %d bytes left",
				i, v, got, len(v.Str), n, bySkip.Buffered(), byValue.Buffered())
		}
	}
	if _, ok, err := bySkip.Skip(); ok || err != nil || bySkip.Buffered() != len("$3\r\nfo") {
		t.Fatalf("incomplete bulk: ok %v, err %v, %d bytes left; want need-more and nothing consumed", ok, err, bySkip.Buffered())
	}
	bySkip.Feed([]byte("oXY"))
	if _, ok, err := bySkip.Skip(); ok || !errors.Is(err, ErrProtocol) {
		t.Fatalf("bulk without CRLF: ok %v, err %v; want a protocol error", ok, err)
	}
}

func TestArrayNestingBounded(t *testing.T) {
	var p Parser
	p.Feed(bytes.Repeat([]byte("*1\r\n"), 1<<20)) // unbounded recursion would exhaust the stack
	if _, _, err := p.Next(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("deep nesting: err = %v, want a protocol error", err)
	}
	var q Parser
	q.Feed([]byte(strings.Repeat("*1\r\n", maxDepth) + ":7\r\n"))
	v, ok, err := q.Next()
	if !ok || err != nil {
		t.Fatalf("nesting of maxDepth: ok %v, err %v", ok, err)
	}
	for v.Type == Array {
		v = v.Array[0]
	}
	if v.Int != 7 {
		t.Fatalf("innermost value = %v", v)
	}
}

// A header line that cannot be a number any more is rejected instead of
// being buffered and rescanned on every read until a CRLF shows up.
func TestOversizedHeaderRejected(t *testing.T) {
	for _, typ := range []string{"$", "*", ":"} {
		var p Parser
		p.Feed([]byte(typ + strings.Repeat("1", maxHeader-1)))
		if _, ok, err := p.Next(); ok || err != nil {
			t.Fatalf("%s header of %d bytes: ok %v, err %v; want need-more", typ, maxHeader, ok, err)
		}
		p.Feed([]byte("1"))
		if _, _, err := p.Next(); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s header past maxHeader: err = %v, want a protocol error", typ, err)
		}
		if _, _, err := p.NextCommand(nil); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s header past maxHeader: NextCommand err = %v", typ, err)
		}
	}
	var p Parser
	p.Feed([]byte("*2\r\n$3\r\nGET\r\n$" + strings.Repeat("9", 40)))
	if _, _, err := p.NextCommand(nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized bulk header inside a command: err = %v", err)
	}
}

func TestIntegerLines(t *testing.T) {
	for wire, want := range map[string]int64{
		":0\r\n": 0, ":-0\r\n": 0, ":+5\r\n": 5, ":007\r\n": 7,
		":9223372036854775807\r\n": 1<<63 - 1, ":-9223372036854775807\r\n": -(1<<63 - 1),
	} {
		var p Parser
		p.Feed([]byte(wire))
		if v, ok, err := p.Next(); !ok || err != nil || v.Int != want {
			t.Errorf("%q = %v (ok %v, err %v), want %d", wire, v, ok, err, want)
		}
	}
	for _, wire := range []string{":\r\n", ":-\r\n", ":1_0\r\n", ":9223372036854775808\r\n",
		":99999999999999999999\r\n", ": 1\r\n", "$536870913\r\n", "*-2\r\n", "$1x\r\n"} {
		var p Parser
		p.Feed([]byte(wire))
		if _, ok, err := p.Next(); ok || !errors.Is(err, ErrProtocol) {
			t.Errorf("%q: ok %v, err %v; want a protocol error", wire, ok, err)
		}
	}
}

func TestNextCommandViewsAndFallback(t *testing.T) {
	var p Parser
	p.Feed([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\nPING\r\n*1\r\n:5\r\n*-1\r\n*0\r\n+OK\r\n*2\r\n$4\r\nECHO\r\n$-1\r\n*1\r\n$4\r\nPI"))
	want := [][]string{{"SET", "k", ""}, {"PING"}, nil, nil, nil, nil, nil}
	var args [][]byte
	for i, w := range want {
		var ok bool
		var err error
		args, ok, err = p.NextCommand(args[:0])
		if !ok || err != nil {
			t.Fatalf("request %d: ok %v, err %v", i, ok, err)
		}
		if len(args) != len(w) {
			t.Fatalf("request %d: args %q, want %q", i, args, w)
		}
		for j := range w {
			if string(args[j]) != w[j] {
				t.Fatalf("request %d: args %q, want %q", i, args, w)
			}
		}
	}
	keep := [][]byte{[]byte("kept")}
	got, ok, err := p.NextCommand(keep)
	if ok || err != nil || len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("incomplete request: args %q, ok %v, err %v", got, ok, err)
	}
	p.Feed([]byte("NG\r\n"))
	if got, ok, err = p.NextCommand(keep); !ok || err != nil || len(got) != 2 || string(got[1]) != "PING" {
		t.Fatalf("completed request appended to args: %q, ok %v, err %v", got, ok, err)
	}
	if p.Buffered() != 0 {
		t.Fatalf("buffered = %d", p.Buffered())
	}
}

// The arguments of a framed command are views: they alias the parse buffer,
// cannot be appended into it, and die with the next feed.
func TestNextCommandReturnsViews(t *testing.T) {
	var p Parser
	wire := Command("SET", "key", "value")
	copy(p.Space(len(wire)), wire)
	p.Commit(len(wire))
	args, ok, err := p.NextCommand(nil)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	for _, a := range args {
		if cap(a) != len(a) {
			t.Fatalf("view %q has spare capacity %d", a, cap(a)-len(a))
		}
	}
	p.buf[bytes.Index(p.buf, []byte("value"))] = 'V'
	if string(args[2]) != "Value" {
		t.Fatalf("argument %q does not alias the parse buffer", args[2])
	}
}

func TestSpaceCommit(t *testing.T) {
	var p Parser
	if got := len(p.Space(100)); got < 100 {
		t.Fatalf("Space(100) = %d bytes", got)
	}
	rng := rand.New(rand.NewSource(1))
	var wire []byte
	for i := 0; i < 2000; i++ {
		wire = AppendCommand(wire, []byte("SET"), []byte("k"), bytes.Repeat([]byte{byte(i)}, rng.Intn(300)))
	}
	// Reads of random sizes into the parser's own buffer, as a socket makes them.
	n := 0
	for off := 0; off < len(wire); {
		space := p.Space(64)
		if len(space) < 64 {
			t.Fatalf("Space(64) = %d bytes", len(space))
		}
		c := copy(space[:1+rng.Intn(len(space))], wire[off:])
		p.Commit(c)
		off += c
		for {
			args, ok, err := p.NextCommand(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(args) != 3 || !bytes.Equal(args[2], bytes.Repeat([]byte{byte(n)}, len(args[2]))) {
				t.Fatalf("request %d: %q", n, args)
			}
			n++
		}
	}
	if n != 2000 || p.Buffered() != 0 {
		t.Fatalf("decoded %d requests, %d bytes left", n, p.Buffered())
	}
	if cap(p.buf) > 4096 {
		t.Fatalf("parse buffer grew to %d bytes for requests under 350", cap(p.buf))
	}
}

func BenchmarkNextCommandSet(b *testing.B) {
	wire := AppendCommand(nil, []byte("SET"), bytes.Repeat([]byte("k"), 16), bytes.Repeat([]byte("v"), 16384))
	var p Parser
	var args [][]byte
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Feed(wire)
		var ok bool
		if args, ok, _ = p.NextCommand(args[:0]); !ok {
			b.Fatal("decode failed")
		}
	}
}
