//go:build !race

// Allocation gates (DESIGN.md §13) for this package's //e2e:hotpath
// functions. Excluded under -race because the race runtime allocates shadow
// state that allocgate.Zero would charge to the tracked code.

package resp

import (
	"testing"

	"e2ebatch/internal/allocgate"
)

func TestAllocGateNextCommand(t *testing.T) {
	var wire []byte
	for i := 0; i < 16; i++ {
		wire = AppendCommand(wire, []byte("SET"), []byte("key0000000000000"), make([]byte, 64))
	}
	var p Parser
	args := make([][]byte, 0, 8)
	allocgate.Zero(t, 200, "Space/Commit/NextCommand of 16 requests", func() {
		copy(p.Space(len(wire)), wire)
		p.Commit(len(wire))
		for {
			var ok bool
			if args, ok, _ = p.NextCommand(args[:0]); !ok {
				break
			}
		}
	})
}

func TestAllocGateSkip(t *testing.T) {
	var wire []byte
	for _, r := range []Value{OK(), Bulk(make([]byte, 16<<10)), NullBulk(), Int(7), Err("ERR no"),
		{Type: Array, Array: []Value{Bulk([]byte("a")), Int(1)}}} {
		wire = AppendValue(wire, r)
	}
	var p Parser
	allocgate.Zero(t, 200, "Feed/Skip of 6 replies", func() {
		p.Feed(wire)
		for {
			if _, ok, _ := p.Skip(); !ok {
				break
			}
		}
	})
}

func TestAllocGateAppendValue(t *testing.T) {
	out := make([]byte, 0, 1024)
	replies := []Value{OK(), Pong(), NullBulk(), Int(-42), Bulk(make([]byte, 64)),
		{Type: Array, Array: []Value{Bulk([]byte("a")), NullBulk()}}}
	allocgate.Zero(t, 200, "AppendValue into a buffer with room", func() {
		out = out[:0]
		for _, r := range replies {
			out = AppendValue(out, r)
		}
	})
}
