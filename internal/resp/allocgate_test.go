//go:build !race

// Allocation gates (DESIGN.md §13) for this package's //e2e:hotpath
// functions. Excluded under -race because the race runtime allocates shadow
// state that AllocsPerRun would charge to the tracked code.

package resp

import "testing"

func TestAllocGateNextCommand(t *testing.T) {
	var wire []byte
	for i := 0; i < 16; i++ {
		wire = AppendCommand(wire, []byte("SET"), []byte("key0000000000000"), make([]byte, 64))
	}
	var p Parser
	args := make([][]byte, 0, 8)
	if n := testing.AllocsPerRun(200, func() {
		copy(p.Space(len(wire)), wire)
		p.Commit(len(wire))
		for {
			var ok bool
			if args, ok, _ = p.NextCommand(args[:0]); !ok {
				break
			}
		}
	}); n != 0 {
		t.Errorf("Space/Commit/NextCommand allocate %v per 16 requests, want 0 (//e2e:hotpath)", n)
	}
}

func TestAllocGateSkip(t *testing.T) {
	var wire []byte
	for _, r := range []Value{OK(), Bulk(make([]byte, 16<<10)), NullBulk(), Int(7), Err("ERR no"),
		{Type: Array, Array: []Value{Bulk([]byte("a")), Int(1)}}} {
		wire = AppendValue(wire, r)
	}
	var p Parser
	if n := testing.AllocsPerRun(200, func() {
		p.Feed(wire)
		for {
			if _, ok, _ := p.Skip(); !ok {
				break
			}
		}
	}); n != 0 {
		t.Errorf("Feed/Skip allocate %v per 6 replies, want 0 (//e2e:hotpath)", n)
	}
}

func TestAllocGateAppendValue(t *testing.T) {
	out := make([]byte, 0, 1024)
	replies := []Value{OK(), Pong(), NullBulk(), Int(-42), Bulk(make([]byte, 64)),
		{Type: Array, Array: []Value{Bulk([]byte("a")), NullBulk()}}}
	if n := testing.AllocsPerRun(200, func() {
		out = out[:0]
		for _, r := range replies {
			out = AppendValue(out, r)
		}
	}); n != 0 {
		t.Errorf("AppendValue allocates %v per op into a buffer with room, want 0 (//e2e:hotpath)", n)
	}
}
