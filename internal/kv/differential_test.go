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

// The command table as argument patterns: k key, f hash field, v value,
// n integer, g glob; "+" repeats the group before it up to three times more.
var table = map[string]string{
	"PING": "", "ECHO": "v", "SET": "kv", "GET": "k", "SETNX": "kv", "GETSET": "kv", "GETDEL": "k",
	"PERSIST": "k", "TYPE": "k", "HSET": "kfv+", "HGET": "kf", "HDEL": "kf+", "HLEN": "k", "HGETALL": "k",
	"LPUSH": "kv+", "RPUSH": "kv+", "LPOP": "k", "RPOP": "k", "LLEN": "k", "LRANGE": "knn", "KEYS": "g",
	"MSET": "kv+", "MGET": "k+", "DEL": "k+", "EXISTS": "k+", "INCR": "k", "DECR": "k", "INCRBY": "kn",
	"DECRBY": "kn", "APPEND": "kv", "STRLEN": "k", "EXPIRE": "kn", "PEXPIRE": "kn", "TTL": "k", "PTTL": "k",
	"DBSIZE": "", "FLUSHALL": "", "COMMAND": "", "INFO": "", "NOSUCH": "kv", "AVERYLONGCOMMANDNAME": "k",
}

// noCommands are complete values that are no command; each is answered with
// an error and the connection lives on.
var noCommands = []string{"*1\r\n:5\r\n", "+OK\r\n", "*0\r\n", "*-1\r\n", "$-1\r\n", "$2\r\nhi\r\n",
	"*2\r\n$4\r\nECHO\r\n$-1\r\n", "*2\r\n$3\r\nGET\r\n*1\r\n$1\r\nk\r\n", "PING\r\n", "get  k1\t\r\n"}

// randomStream is n requests over the whole table on a handful of keys, so
// that kinds collide: mixed-case names, EX/PX, wrong arity, bad integers,
// unknown commands, inline commands and values that are no command.
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
		if name == "FLUSHALL" && rng.Intn(4) > 0 {
			name = "SET" // keep most of the state most of the time
		}
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
	case 'f':
		return []byte(fmt.Sprintf("f%d", rng.Intn(3)))
	case 'g':
		return []byte([]string{"*", "k?", "k1*", "x*"}[rng.Intn(4)])
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
	if rng.Intn(8) == 0 {
		return []byte(fmt.Sprint(rng.Intn(1000))) // something INCR accepts
	}
	v := make([]byte, size)
	rng.Read(v) // any byte, CR and LF included
	return v
}

// newEngine returns an engine whose clock is a function of the commands it
// has executed, so that TTLs run out at the same request on every path.
func newEngine() *kv.Engine {
	var eng *kv.Engine
	eng = kv.NewEngine(kv.NewStore(func() time.Duration {
		total, _ := eng.Commands()
		return time.Duration(total) * 7 * time.Millisecond
	}))
	return eng
}

// dump renders everything the store holds through the adapter.
func dump(t *testing.T, eng *kv.Engine) string {
	t.Helper()
	var p resp.Parser
	var out []byte
	do := func(args ...string) resp.Value {
		p.Feed(resp.Command(args...))
		v, ok, err := p.Next()
		if !ok || err != nil {
			t.Fatal(ok, err)
		}
		reply := eng.Execute(v)
		out = append(resp.AppendValue(append(out, args[0]...), reply), '\n')
		return reply
	}
	for _, k := range do("KEYS", "*").Array {
		key := string(k.Str)
		do("PTTL", key)
		switch kind := string(do("TYPE", key).Str); kind {
		case "string":
			do("GET", key)
		case "hash":
			do("HGETALL", key)
		case "list":
			do("LRANGE", key, "0", "-1")
		case "none": // it expired while dump's own commands moved the clock
		default:
			t.Fatalf("key %q has kind %q", key, kind)
		}
	}
	return string(out)
}

// reference is what the adapter path — Parser.Next and Execute(Value) — makes
// of a stream.
type reference struct {
	replies     []byte
	total, errs uint64
	store       string
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
			ref.total, ref.errs = eng.Commands()
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
		if ref.errs < ref.total/20 || ref.errs > ref.total/2 {
			t.Fatalf("seed %d: %d of %d replies are errors: the stream does not exercise both", seed, ref.errs, ref.total)
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
			srv := kv.NewSimServer(eng, sc, kv.DefaultSimServerConfig())
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
	if total, errs := eng.Commands(); total != ref.total || errs != ref.errs {
		t.Fatalf("executed %d commands, %d errors; the adapter %d, %d", total, errs, ref.total, ref.errs)
	}
	if got := dump(t, eng); got != ref.store {
		t.Fatalf("final store contents differ:\n%s\nwant:\n%s", got, ref.store)
	}
}
