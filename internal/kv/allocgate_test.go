//go:build !race

// Allocation gates (DESIGN.md §13) for the request path. Excluded under -race
// because the race runtime allocates shadow state that allocgate.Zero would
// charge to the tracked code.

package kv

import (
	"testing"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/resp"
)

func TestAllocGateGet(t *testing.T) {
	e, _ := newTestEngine()
	e.Exec(argv("SET", "key0000000000000", "value"))
	get, miss := argv("get", "key0000000000000"), argv("GET", "no-such-key")
	allocgate.Zero(t, 200, "GET", func() {
		if e.Exec(get).Null || !e.Exec(miss).Null {
			t.Fatal("wrong reply")
		}
	})
}

func TestAllocGateSetExistingKey(t *testing.T) {
	e, _ := newTestEngine()
	long, short := argv("SET", "key0000000000000", string(make([]byte, 16384))), argv("Set", "key0000000000000", "short", "PX", "5000")
	e.Exec(long)
	allocgate.Zero(t, 200, "SET of an existing key", func() {
		if e.Exec(short).IsError() || e.Exec(long).IsError() {
			t.Fatal("SET failed")
		}
	})
}

// The whole server-side path of a pipelined batch: bytes in the parser's
// buffer → argument views → Exec → replies appended to one output buffer.
func TestAllocGatePipelinedBatch(t *testing.T) {
	e, _ := newTestEngine()
	var wire []byte
	for i := 0; i < 8; i++ {
		wire = resp.AppendCommand(wire, []byte("SET"), []byte("key0000000000000"), make([]byte, 64))
		wire = resp.AppendCommand(wire, []byte("GET"), []byte("key0000000000000"))
	}
	var p resp.Parser
	var args [][]byte
	out := make([]byte, 0, 4096)
	batch := func() {
		copy(p.Space(len(wire)), wire)
		p.Commit(len(wire))
		out = out[:0]
		for {
			var ok bool
			if args, ok, _ = p.NextCommand(args[:0]); !ok {
				break
			}
			out = resp.AppendValue(out, e.Exec(args))
		}
	}
	batch() // the first SET builds the key
	allocgate.Zero(t, 100, "a 16-deep pipelined batch", batch)
	if want := 8*len("+OK\r\n$64\r\n\r\n") + 8*64; len(out) != want {
		t.Errorf("batch produced %d reply bytes, want %d", len(out), want)
	}
}
