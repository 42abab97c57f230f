package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/figures"
	"e2ebatch/internal/loadgen"
)

// Every gate gets a run that passes it and a deliberately wrong one that
// must trip it: a gate that cannot fail checks nothing.

func goodSimRun() *figures.RunOut {
	out := &figures.RunOut{Res: &loadgen.Result{Issued: 1000, Completed: 1000}}
	out.ClientConn.SentDigest, out.ServerConn.ReadDigest = 0xabc, 0xabc
	out.ServerConn.SentDigest, out.ClientConn.ReadDigest = 0xdef, 0xdef
	return out
}

func TestSimGates(t *testing.T) {
	var g gates
	simGates(goodSimRun(), &g)
	if g.failed != 0 || g.attempted != 1000 {
		t.Fatalf("a clean run: %d failed of %d, notes %v", g.failed, g.attempted, g.notes)
	}

	for name, breakIt := range map[string]func(*figures.RunOut){
		"undrained":      func(o *figures.RunOut) { o.Res.Completed = 990 },
		"dropped":        func(o *figures.RunOut) { o.Res.Dropped = 3 },
		"request bytes":  func(o *figures.RunOut) { o.ServerConn.ReadDigest ^= 1 },
		"response bytes": func(o *figures.RunOut) { o.ClientConn.ReadDigest ^= 1 },
	} {
		var g gates
		out := goodSimRun()
		breakIt(out)
		simGates(out, &g)
		if g.failed == 0 {
			t.Errorf("%s: the gate let it pass", name)
		}
	}
}

func TestSameRunGate(t *testing.T) {
	mk := func(n uint64, lats ...time.Duration) *loadgen.Result {
		r := &loadgen.Result{Issued: n, Completed: n}
		for _, l := range lats {
			r.Latency.Record(l)
		}
		return r
	}
	var g gates
	sameRunGate(mk(3, 10*time.Microsecond, 20*time.Microsecond, 30*time.Microsecond),
		mk(3, 10*time.Microsecond, 20*time.Microsecond, 30*time.Microsecond), &g)
	if g.failed != 0 {
		t.Fatalf("identical runs: %v", g.notes)
	}
	sameRunGate(mk(3, 10*time.Microsecond, 20*time.Microsecond, 30*time.Microsecond),
		mk(3, 10*time.Microsecond, 20*time.Microsecond, 31*time.Microsecond), &g)
	if g.failed == 0 {
		t.Error("a re-run with one different latency passed the determinism gate")
	}
}

func TestKvloadGates(t *testing.T) {
	var g gates
	sentGate(39800, 40000, &g)
	servedGate(44000, 43990, &g)
	if g.failed != 0 {
		t.Fatalf("rate kept and every request served: %v", g.notes)
	}
	sentGate(38000, 40000, &g)
	if g.failed == 0 {
		t.Error("5% fewer requests than the rate asks for passed the gate")
	}
	g = gates{}
	servedGate(43000, 43990, &g)
	if g.failed == 0 {
		t.Error("a server that counted fewer requests than were sent passed")
	}
}

// fakeServer answers RESP commands from a map, with one fault switched on.
type fakeServer struct {
	staleGet bool // GETs return the first value ever set, not the latest
	errOnSet bool // SETs are answered with an error
	extra    bool // one unsolicited reply follows the first command
	short    bool // GET values lose their last byte
}

func (f fakeServer) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	first, latest := map[string][]byte{}, map[string][]byte{}
	n := 0
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		var reply []byte
		switch strings.ToUpper(string(args[0])) {
		case "SET":
			if _, ok := first[string(args[1])]; !ok {
				first[string(args[1])] = args[2]
			}
			latest[string(args[1])] = args[2]
			reply = []byte("+OK\r\n")
			if f.errOnSet {
				reply = []byte("-ERR no\r\n")
			}
		case "GET":
			v := latest[string(args[1])]
			if f.staleGet {
				v = first[string(args[1])]
			}
			if f.short && len(v) > 0 {
				v = v[:len(v)-1]
			}
			reply = append([]byte("$"+strconv.Itoa(len(v))+"\r\n"), v...)
			reply = append(reply, '\r', '\n')
		}
		if n == 0 && f.extra {
			reply = append(reply, "+OK\r\n"...)
		}
		n++
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	argc, err := strconv.Atoi(strings.TrimSpace(line[1:]))
	if err != nil {
		return nil, err
	}
	args := make([][]byte, argc)
	for i := range args {
		if line, err = r.ReadString('\n'); err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(strings.TrimSpace(line[1:]))
		if err != nil {
			return nil, err
		}
		args[i] = make([]byte, n+2)
		if _, err := io.ReadFull(r, args[i]); err != nil {
			return nil, err
		}
		args[i] = args[i][:n]
	}
	return args, nil
}

// drive runs a short closed loop against a fake server and returns the gates.
func drive(t *testing.T, f fakeServer, w sockWorkload) gates {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err == nil {
			f.serve(conn)
		}
	}()
	c, err := dialLoad(&w, 7, 0, l.Addr().String(), makePool(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.nc.Close()
	if err := c.roundTrip(c.allKeys(true)); err != nil {
		return c.g
	}
	reqs := make([]request, w.depth)
	for i := 0; i < 50; i++ {
		if err := c.batch(reqs); err != nil {
			return c.g
		}
	}
	c.sweep()
	return c.g
}

func TestSockReplyGates(t *testing.T) {
	w := sockWorkload{name: "t", conns: 1, depth: 4, setPermille: 500, valSize: 32}
	if g := drive(t, fakeServer{}, w); g.failed != 0 || g.attempted != keysPerConn+50*4+keysPerConn {
		t.Fatalf("a correct server: %d failed of %d, notes %v", g.failed, g.attempted, g.notes)
	}
	for name, f := range map[string]fakeServer{
		"GET returns an older SET": {staleGet: true},
		"SET answered with error":  {errOnSet: true},
		"one reply too many":       {extra: true},
		"GET value one byte short": {short: true},
	} {
		if g := drive(t, f, w); g.failed == 0 {
			t.Errorf("%s: the gates let it pass", name)
		}
	}
}

func TestStreamIsAFunctionOfSeedConnAndIndex(t *testing.T) {
	w := sockWorkloads[0]
	var sets int
	for i := uint64(0); i < 10000; i++ {
		a, b := w.stream(3, 1, i), w.stream(3, 1, i)
		if a != b {
			t.Fatalf("request %d differs between two calls: %+v vs %+v", i, a, b)
		}
		if a.key < 0 || a.key >= keysPerConn || a.off < 0 || a.off+w.valSize > poolBytes {
			t.Fatalf("request %d out of range: %+v", i, a)
		}
		if a.set {
			sets++
		}
	}
	if sets < 7700 || sets > 8300 {
		t.Errorf("%d SETs in 10000 requests, want about %d", sets, 10*w.setPermille)
	}
	if w.stream(3, 1, 5) == w.stream(4, 1, 5) && w.stream(3, 1, 6) == w.stream(4, 1, 6) {
		t.Error("two seeds gave the same requests")
	}
	if !bytes.Equal(makePool(9), makePool(9)) || bytes.Equal(makePool(9), makePool(10)) {
		t.Error("the value pool must depend on the seed and on nothing else")
	}
	if len(connKey(1, 15)) != 16 {
		t.Errorf("key %q is not 16 bytes", connKey(1, 15))
	}
}
