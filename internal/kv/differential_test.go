package kv_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// The command table as argument patterns: k key, v value; "+" repeats the
// group before it up to three times more. DEL and HSET stand for the
// commands the engine does not serve.
var table = map[string]string{
	"PING": "", "SET": "kv", "GET": "k", "MGET": "k+", "INFO": "",
	"DEL": "k+", "HSET": "kvv+", "AVERYLONGCOMMANDNAME": "k",
}

// noCommands are complete values that are no command; each is answered with
// an error and the connection lives on.
var noCommands = []string{"*1\r\n:5\r\n", "+OK\r\n", "*0\r\n", "*-1\r\n", "$-1\r\n", "$2\r\nhi\r\n",
	"*2\r\n$4\r\nPING\r\n$-1\r\n", "*2\r\n$3\r\nGET\r\n*1\r\n$1\r\nk\r\n", "PING\r\n", "get  k1\t\r\n"}

// randomStream is n requests over the whole table on a handful of keys:
// mixed-case names, EX/PX, wrong arity, bad integers, unknown commands,
// inline commands and values that are no command.
func randomStream(rng *rand.Rand, n int) []byte {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names) // map order is random; the stream must be a function of the seed
	var wire []byte
	for i := 0; i < n; i++ {
		if rng.Intn(25) == 0 {
			wire = append(wire, noCommands[rng.Intn(len(noCommands))]...)
			continue
		}
		name := names[rng.Intn(len(names))]
		pattern := table[name]
		if plus := strings.IndexByte(pattern, '+'); plus >= 0 {
			group := pattern[1:plus]
			pattern = pattern[:plus] + strings.Repeat(group, rng.Intn(4))
		}
		args := [][]byte{mixCase(rng, name)}
		for _, c := range pattern {
			args = append(args, randomArg(rng, c))
		}
		if name == "SET" && rng.Intn(3) == 0 {
			opt := []string{"EX", "px", "Px", "eX", "XX"}[rng.Intn(5)]
			args = append(args, []byte(opt), randomArg(rng, 'n'))
		}
		switch rng.Intn(12) { // wrong arity, one way or the other
		case 0:
			args = args[:len(args)-1]
		case 1:
			args = append(args, randomArg(rng, 'v'))
		}
		if len(args) > 0 {
			wire = resp.AppendCommand(wire, args...)
		}
	}
	return wire
}

func mixCase(rng *rand.Rand, name string) []byte {
	b := []byte(name)
	if rng.Intn(2) == 0 {
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] |= 0x20
			}
		}
	}
	return b
}

func randomArg(rng *rand.Rand, kind rune) []byte {
	switch kind {
	case 'k':
		return []byte(fmt.Sprintf("k%d", rng.Intn(6)))
	case 'n':
		if rng.Intn(10) == 0 {
			return []byte("1x")
		}
		return []byte(fmt.Sprint(rng.Intn(400) - 40))
	}
	size := rng.Intn(40)
	if rng.Intn(20) == 0 {
		size = 3000 + rng.Intn(3000)
	}
	v := make([]byte, size)
	rng.Read(v) // any byte, CR and LF included
	return v
}

// newEngine returns an engine whose clock advances 7 ms at every reading.
// The readings are a function of the command stream, so TTLs run out at the
// same request on every path.
func newEngine() *kv.Engine {
	var now time.Duration
	return kv.NewEngine(kv.NewStore(func() time.Duration {
		now += 7 * time.Millisecond
		return now
	}))
}

// dump renders every key the streams can touch through the adapter.
func dump(t *testing.T, eng *kv.Engine) string {
	t.Helper()
	var p resp.Parser
	var out []byte
	for i := 0; i < 6; i++ {
		p.Feed(resp.Command("GET", fmt.Sprintf("k%d", i)))
		v, ok, err := p.Next()
		if !ok || err != nil {
			t.Fatal(ok, err)
		}
		out = append(resp.AppendValue(out, eng.Execute(v)), '\n')
	}
	return string(out)
}

// reference is what the adapter path — Parser.Next and Execute(Value) — makes
// of a stream.
type reference struct {
	replies []byte
	store   string
}

func viaAdapter(t *testing.T, wire []byte) (ref reference) {
	t.Helper()
	eng := newEngine()
	var p resp.Parser
	p.Feed(wire)
	for {
		v, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			ref.store = dump(t, eng)
			return ref
		}
		ref.replies = resp.AppendValue(ref.replies, eng.Execute(v))
	}
}

func TestViewPathMatchesAdapter(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wire := randomStream(rng, 1500)
		ref := viaAdapter(t, wire)
		if total, errs := countErrors(t, ref.replies); errs < total/20 || errs > total/2 {
			t.Fatalf("seed %d: %d of %d replies are errors: the stream does not exercise both", seed, errs, total)
		}

		t.Run(fmt.Sprintf("engine/%d", seed), func(t *testing.T) {
			eng := newEngine()
			var p resp.Parser
			var args [][]byte
			var got []byte
			for rest := wire; len(rest) > 0; {
				n := min(len(rest), 1+rng.Intn(700))
				copy(p.Space(n), rest[:n])
				p.Commit(n)
				rest = rest[n:]
				for {
					var ok bool
					var err error
					if args, ok, err = p.NextCommand(args[:0]); err != nil {
						t.Fatal(err)
					} else if !ok {
						break
					}
					got = resp.AppendValue(got, eng.Exec(args))
				}
			}
			compare(t, got, eng, ref)
		})

		t.Run(fmt.Sprintf("simserver/%d", seed), func(t *testing.T) {
			s := sim.New(seed)
			link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 10_000_000_000, Propagation: 2 * time.Microsecond})
			cfg := tcpsim.DefaultConfig()
			cfg.Nagle = seed%2 == 0
			cc, sc := tcpsim.Connect(tcpsim.NewStack(s, "client"), tcpsim.NewStack(s, "server"), link, cfg)
			eng := newEngine()
			srv := tcpsim.NewSimServer(eng, sc, tcpsim.DefaultSimServerConfig())
			var got []byte
			cc.OnReadable(func() { got = append(got, cc.Read(0)...) })
			for rest := wire; len(rest) > 0; {
				n := min(len(rest), 1+rng.Intn(3000))
				cc.Send(rest[:n])
				rest = rest[n:]
				s.RunFor(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			s.RunFor(time.Second)
			if st := srv.Stats(); st.MaxBatch < 2 {
				t.Fatalf("max batch %d: pending never held two requests", st.MaxBatch)
			}
			compare(t, got, eng, ref)
		})

		t.Run(fmt.Sprintf("realtcp/%d", seed), func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("loopback listen unavailable: %v", err)
			}
			eng := newEngine()
			srv := realtcp.NewServer(eng)
			srv.BufBytes = 1 << (9 + seed%4*2) // 512 B to 32 KiB: requests larger and smaller than the buffers
			go srv.Serve(l)
			defer srv.Close()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			chunks := rand.New(rand.NewSource(seed))
			go func() {
				for rest := wire; len(rest) > 0; {
					n := min(len(rest), 1+chunks.Intn(3000))
					if _, err := conn.Write(rest[:n]); err != nil {
						return // the reader reports what is missing
					}
					rest = rest[n:]
				}
			}()
			got := make([]byte, len(ref.replies))
			conn.SetReadDeadline(time.Now().Add(20 * time.Second))
			if n, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("read %d of %d reply bytes: %v", n, len(got), err)
			}
			srv.Close() // the handler is done with the engine
			compare(t, got, eng, ref)
		})
	}
}

func compare(t *testing.T, got []byte, eng *kv.Engine, ref reference) {
	t.Helper()
	if want := ref.replies; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("reply streams differ at byte %d of %d/%d: %q, want %q", i, len(got), len(want),
			got[i:min(len(got), i+60)], want[i:min(len(want), i+60)])
	}
	if got := dump(t, eng); got != ref.store {
		t.Fatalf("final store contents differ:\n%s\nwant:\n%s", got, ref.store)
	}
}

// countErrors counts the replies in a reply stream and the errors among them.
func countErrors(t *testing.T, replies []byte) (total, errs int) {
	t.Helper()
	var p resp.Parser
	p.Feed(replies)
	for {
		v, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return total, errs
		}
		total++
		if v.IsError() {
			errs++
		}
	}
}

// FuzzExecAgreesWithAdapter feeds arbitrary wire bytes to both command paths
// of the engine: the view path the servers run (NextCommand, Exec) and the
// adapter (Next, Execute). Neither may panic, and their reply streams must
// be byte-identical up to the same end: more input wanted, or a protocol
// error.
func FuzzExecAgreesWithAdapter(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		f.Add(randomStream(rand.New(rand.NewSource(seed)), 16))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		byValue, byView := newEngine(), newEngine()
		var pv, pc resp.Parser
		pv.Feed(data)
		pc.Feed(data)
		var want, got []byte
		var args [][]byte
		for {
			v, ok, err := pv.Next()
			var vok bool
			var verr error
			args, vok, verr = pc.NextCommand(args[:0])
			if ok != vok || (err == nil) != (verr == nil) {
				t.Fatalf("Next: ok %v, err %v; NextCommand: ok %v, err %v", ok, err, vok, verr)
			}
			if err != nil || !ok {
				break
			}
			want = resp.AppendValue(want, byValue.Execute(v))
			got = resp.AppendValue(got, byView.Exec(args))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replies differ:\n%q\nwant:\n%q", got, want)
		}
	})
}
