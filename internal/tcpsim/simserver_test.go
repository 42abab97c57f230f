package tcpsim

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
)

// simRig wires a client conn to a SimServer over a fast link.
type simRig struct {
	s      *sim.Sim
	client *Conn
	server *SimServer
	parser resp.Parser
}

func newSimRig(t *testing.T, cfg Config, scfg SimServerConfig) *simRig {
	t.Helper()
	s := sim.New(1)
	cs := NewStack(s, "client")
	ss := NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	cc, sc := Connect(cs, ss, link, cfg)
	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	srv := NewSimServer(kv.NewEngine(store), sc, scfg)
	return &simRig{s: s, client: cc, server: srv}
}

// replies drains and parses everything readable at the client.
func (r *simRig) replies(t *testing.T) []resp.Value {
	t.Helper()
	if data := r.client.Read(0); len(data) > 0 {
		r.parser.Feed(data)
	}
	var out []resp.Value
	for {
		v, ok, err := r.parser.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestSimServerPing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	r.client.Send(resp.Command("PING"))
	r.s.RunUntil(sim.Time(time.Millisecond))
	got := r.replies(t)
	if len(got) != 1 || got[0].String() != "+PONG" {
		t.Fatalf("replies = %v", got)
	}
}

func TestSimServerSetGetRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	val := make([]byte, 16384)
	for i := range val {
		val[i] = byte(i)
	}
	r.client.Send(resp.AppendCommand(nil, []byte("SET"), []byte("key0000000000000"), val))
	r.client.Send(resp.Command("GET", "key0000000000000"))
	r.s.RunUntil(sim.Time(10 * time.Millisecond))
	got := r.replies(t)
	if len(got) != 2 {
		t.Fatalf("replies = %d, want 2", len(got))
	}
	if got[0].String() != "+OK" {
		t.Fatalf("SET reply = %v", got[0])
	}
	if len(got[1].Str) != 16384 || got[1].Str[100] != val[100] {
		t.Fatalf("GET reply = %v", got[1])
	}
	st := r.server.Stats()
	if st.Requests != 2 {
		t.Fatalf("server requests = %d", st.Requests)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters zero: %+v", st)
	}
}

// TestSimServerReusesRepliesOnlyOnceRead: a GET reply's buffer builds a later
// reply only after the client has read its last byte. A client reads eight
// replies eagerly, then none of eight more, then part of a backlog while
// eight more GETs arrive; every value it finally parses must be intact.
func TestSimServerReusesRepliesOnlyOnceRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%013d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 4096+i) }
	for i := 0; i < 8; i++ {
		r.client.Send(resp.AppendCommand(nil, []byte("SET"), key(i), val(i)))
	}
	r.s.RunFor(10 * time.Millisecond)
	if got := r.replies(t); len(got) != 8 {
		t.Fatalf("%d SET replies, want 8", len(got))
	}
	var want []int // the key each GET sent so far asks for, in order
	parsed := 0
	get := func(keys ...int) {
		for _, k := range keys {
			r.client.Send(resp.AppendCommand(nil, []byte("GET"), key(k)))
			want = append(want, k)
		}
		r.s.RunFor(10 * time.Millisecond)
	}
	read := func(max int) {
		if data := r.client.Read(max); len(data) > 0 {
			r.parser.Feed(data)
		}
		for {
			v, ok, err := r.parser.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if k := want[parsed]; !bytes.Equal(v.Str, val(k)) {
				t.Fatalf("reply %d (GET of key %d) is %d bytes of %q, want %d of %q", parsed, k, len(v.Str), v.Str[:1], len(val(k)), val(k)[:1])
			}
			parsed++
		}
		r.s.RunFor(10 * time.Millisecond)
	}
	get(0, 1, 2, 3, 4, 5, 6, 7)
	read(0)
	get(7, 6, 5, 4, 3, 2, 1, 0)
	read(3*4096 + 100)
	get(0, 1, 2, 3, 4, 5, 6, 7)
	for r.client.Readable() > 0 {
		read(0)
	}
	if parsed != len(want) {
		t.Fatalf("parsed %d replies, want %d", parsed, len(want))
	}
}

func TestSimServerPipelinedBatch(t *testing.T) {
	// Many pipelined commands sent at once must be served in order and
	// show up as a batched read on the server (the adaptive-batching
	// behaviour of the paper's Figure 1 "top").
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	var wire []byte
	const n = 20
	for i := 0; i < n; i++ {
		wire = resp.AppendCommand(wire, []byte("PING"), strconv.AppendInt(nil, int64(i), 10))
	}
	r.client.Send(wire)
	r.s.RunUntil(sim.Time(10 * time.Millisecond))
	got := r.replies(t)
	if len(got) != n {
		t.Fatalf("replies = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if string(v.Str) != strconv.Itoa(i) {
			t.Fatalf("reply %d = %v, want %d (ordering broken)", i, v, i)
		}
	}
	st := r.server.Stats()
	if st.MaxBatch < 2 {
		t.Fatalf("max batch = %d, expected batched reads", st.MaxBatch)
	}
	if st.ReadBatches >= st.Requests {
		t.Fatalf("batches=%d requests=%d: no amortization", st.ReadBatches, st.Requests)
	}
}

func TestSimServerSplitCommandAcrossSegments(t *testing.T) {
	// A command larger than one TSO flush arrives in pieces; the server
	// must buffer the partial parse and answer exactly once.
	cfg := DefaultConfig()
	cfg.Nagle = false
	cfg.TSOMaxBytes = 2 * cfg.MSS
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	val := make([]byte, 30000)
	r.client.Send(resp.AppendCommand(nil, []byte("SET"), []byte("k"), val))
	r.s.RunUntil(sim.Time(50 * time.Millisecond))
	got := r.replies(t)
	if len(got) != 1 || got[0].String() != "+OK" {
		t.Fatalf("replies = %v", got)
	}
}

func TestSimServerProtocolErrorStopsServing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	r.client.Send([]byte("$garbage\r\n"))
	r.s.RunUntil(sim.Time(5 * time.Millisecond))
	got := r.replies(t)
	if len(got) != 1 || !got[0].IsError() {
		t.Fatalf("replies = %v, want protocol error", got)
	}
	// Further commands are ignored (connection "closed").
	r.client.Send(resp.Command("PING"))
	r.s.RunUntil(sim.Time(10 * time.Millisecond))
	if extra := r.replies(t); len(extra) != 0 {
		t.Fatalf("server still answering after protocol error: %v", extra)
	}
}

func TestSimServerChargesAppCPU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	scfg := DefaultSimServerConfig()
	r := newSimRig(t, cfg, scfg)
	for i := 0; i < 10; i++ {
		r.client.Send(resp.Command("PING"))
		r.s.RunFor(time.Millisecond)
	}
	busy := r.server.conn.Stack().AppCPU.BusyTime()
	// 10 wakeups × (β + α + write cost) at minimum.
	min := 10 * (scfg.ReadCosts.PerBatch + scfg.ReadCosts.PerItem)
	if busy < min {
		t.Fatalf("app CPU busy = %v, want >= %v", busy, min)
	}
}

// The server half of the reader-stall fault: a stalled server reads nothing,
// so requests pile up unread at its socket and get no replies; resuming
// serves every one of them, in order.
func TestSimServerStallAndResume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nagle = false
	r := newSimRig(t, cfg, DefaultSimServerConfig())
	r.server.Stall(true)
	const n = 16
	var wire []byte
	for i := 0; i < n; i++ {
		wire = resp.AppendCommand(wire, []byte("PING"), strconv.AppendInt(nil, int64(i), 10))
	}
	unread := 0
	for _, half := range [][]byte{wire[:len(wire)/2], wire[len(wire)/2:]} {
		r.client.Send(half)
		r.s.RunFor(time.Millisecond)
		if got := r.replies(t); len(got) != 0 {
			t.Fatalf("a stalled server replied: %v", got)
		}
		if now := r.server.conn.Readable(); now <= unread {
			t.Fatalf("unread bytes at the stalled server went from %d to %d", unread, now)
		} else {
			unread = now
		}
	}
	if unread != len(wire) || r.server.Stats().Requests != 0 {
		t.Fatalf("stalled: %d of %d bytes unread, %d requests served", unread, len(wire), r.server.Stats().Requests)
	}
	r.server.Stall(false)
	r.s.RunFor(10 * time.Millisecond)
	got := r.replies(t)
	if len(got) != n {
		t.Fatalf("after resuming: %d replies, want %d", len(got), n)
	}
	for i, v := range got {
		if string(v.Str) != strconv.Itoa(i) {
			t.Fatalf("reply %d = %v, want %d (ordering broken)", i, v, i)
		}
	}
	if left := r.server.conn.Readable(); left != 0 {
		t.Fatalf("%d bytes left unread after resuming", left)
	}
}
