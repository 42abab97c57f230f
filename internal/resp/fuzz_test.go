package resp

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParser feeds arbitrary bytes: the parser must never panic, and when
// it yields a value, re-encoding and re-parsing that value must be stable.
func FuzzParser(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte(":123\r\n"))
	f.Add([]byte("$3\r\nfoo\r\n"))
	f.Add([]byte("*2\r\n+a\r\n+b\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("*1000000\r\n"))
	f.Add(Command("SET", "k", "v"))
	for _, hostile := range hostileSeeds {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		p.Feed(data)
		for i := 0; i < 100; i++ {
			v, ok, err := p.Next()
			if err != nil || !ok {
				return
			}
			// Round-trip stability for parsed values.
			wire := AppendValue(nil, v)
			var q Parser
			q.Feed(wire)
			v2, ok2, err2 := q.Next()
			if err2 != nil || !ok2 {
				t.Fatalf("re-parse of encoded value failed: %v %v (wire %q)", ok2, err2, wire)
			}
			if !fuzzValueEqual(v, v2) {
				t.Fatalf("round trip changed value: %v -> %v", v, v2)
			}
		}
	})
}

// FuzzParserChunked: byte-at-a-time feeding must agree with whole-buffer
// feeding.
func FuzzParserChunked(f *testing.F) {
	f.Add([]byte("*2\r\n$1\r\na\r\n:5\r\n"))
	f.Add([]byte("GET key\r\n+OK\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var whole Parser
		whole.Feed(data)
		var wholeVals []Value
		for {
			v, ok, err := whole.Next()
			if err != nil || !ok {
				break
			}
			wholeVals = append(wholeVals, v)
		}
		var chunked Parser
		var chunkVals []Value
	outer:
		for _, b := range data {
			chunked.Feed([]byte{b})
			for {
				v, ok, err := chunked.Next()
				if err != nil {
					break outer
				}
				if !ok {
					break
				}
				chunkVals = append(chunkVals, v)
			}
		}
		if len(chunkVals) < len(wholeVals) {
			// Chunked parsing may stop earlier only on error paths;
			// compare the common prefix.
			wholeVals = wholeVals[:len(chunkVals)]
		}
		for i := range wholeVals {
			if !fuzzValueEqual(wholeVals[i], chunkVals[i]) {
				t.Fatalf("value %d differs between whole and chunked parse", i)
			}
		}
	})
}

// hostileSeeds are the inputs that used to take the process down or make it
// buffer without end: a header reserving 10 M and 512 Mi elements, nesting a
// parser recurses into, and a length line that never ends.
var hostileSeeds = [][]byte{
	[]byte("*10000000\r\n"),
	[]byte("*536870912\r\n"),
	bytes.Repeat([]byte("*1\r\n"), 4096),
	[]byte("$" + strings.Repeat("1", 4096)),
	// An inline command is an array too: at the deepest level it used to slip
	// past the bound and re-encode into a value the parser rejects.
	[]byte(strings.Repeat("*1\r\n", maxDepth) + "PING\r\n"),
}

// chunked hands data to feed in pieces whose lengths come from cuts — 1 to 16
// bytes each, then the rest — until it is used up or feed returns false.
func chunked(data []byte, cuts uint64, feed func(chunk []byte) bool) {
	for len(data) > 0 {
		n := min(len(data), 1+int(cuts&15))
		if cuts >>= 4; cuts == 0 {
			n = len(data)
		}
		if !feed(data[:n]) {
			return
		}
		data = data[n:]
	}
}

// FuzzCommandAgreesWithNext: on any input, cut into any chunks, NextCommand
// and Next accept, wait and reject at the same points, and NextCommand's
// arguments are the bytes of Next's command (none when it is no command).
func FuzzCommandAgreesWithNext(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\nPING\r\n*1\r\n:5\r\n"), uint64(0x9e3779b97f4a7c15))
	f.Add([]byte("*2\r\n$4\r\nECHO\r\n$-1\r\n*0\r\n*-1\r\n+OK\r\n$3\r\nfooXY"), uint64(3))
	f.Add(append(Command("SET", "k", "v"), "*1\r\n$abc\r\n"...), uint64(1))
	for i, hostile := range hostileSeeds {
		f.Add(hostile, uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		if len(data) > 1<<16 {
			return
		}
		var byValue, byView Parser
		var args [][]byte
		chunked(data, cuts, func(chunk []byte) bool {
			byValue.Feed(chunk)
			byView.Commit(copy(byView.Space(len(chunk)), chunk))
			for {
				v, ok, err := byValue.Next()
				var vok bool
				var verr error
				args, vok, verr = byView.NextCommand(args[:0])
				if ok != vok || (err == nil) != (verr == nil) {
					t.Fatalf("Next: ok %v, err %v; NextCommand: ok %v, err %v", ok, err, vok, verr)
				}
				if err != nil || !ok {
					return err == nil
				}
				want := v.AppendArgs(nil)
				if len(args) != len(want) {
					t.Fatalf("NextCommand args %q, Next's %q", args, want)
				}
				for i := range want {
					if !bytes.Equal(args[i], want[i]) {
						t.Fatalf("NextCommand args %q, Next's %q", args, want)
					}
				}
				if byValue.Buffered() != byView.Buffered() {
					t.Fatalf("consumed differently: %d and %d bytes left", byValue.Buffered(), byView.Buffered())
				}
			}
		})
	})
}

// FuzzSkipAgreesWithNext: on any input, cut into any chunks, Skip and Next
// accept, wait and reject at the same points with the same error, consume the
// same bytes, and Skip's length is that of the string Next built.
func FuzzSkipAgreesWithNext(f *testing.F) {
	f.Add([]byte("+OK\r\n$3\r\nfoo\r\n:12\r\n-ERR no\r\n$-1\r\n*2\r\n$1\r\na\r\n+b\r\n$0\r\n\r\n"), uint64(0x9e3779b97f4a7c15))
	f.Add([]byte("*2\r\n*1\r\nPING x\r\n+a\r\nGET k\r\n*-1\r\n*0\r\n$3\r\nfooXY"), uint64(3))
	f.Add(append(AppendValue(nil, Bulk(bytes.Repeat([]byte{'v'}, 300))), "$abc\r\n"...), uint64(1))
	for i, hostile := range hostileSeeds {
		f.Add(hostile, uint64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, cuts uint64) {
		if len(data) > 1<<16 {
			return
		}
		var byValue, bySkip Parser
		chunked(data, cuts, func(chunk []byte) bool {
			byValue.Feed(chunk)
			bySkip.Feed(chunk)
			for {
				v, ok, err := byValue.Next()
				n, sok, serr := bySkip.Skip()
				if ok != sok || err != serr || n != len(v.Str) {
					t.Fatalf("Next: %d-byte string, ok %v, err %v; Skip: %d, ok %v, err %v", len(v.Str), ok, err, n, sok, serr)
				}
				if byValue.Buffered() != bySkip.Buffered() {
					t.Fatalf("consumed differently: %d and %d bytes left", byValue.Buffered(), bySkip.Buffered())
				}
				if err != nil || !ok {
					return err == nil
				}
			}
		})
	})
}

func fuzzValueEqual(a, b Value) bool {
	if a.Type != b.Type || a.Null != b.Null || a.Int != b.Int || !bytes.Equal(a.Str, b.Str) {
		return false
	}
	if len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !fuzzValueEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}
