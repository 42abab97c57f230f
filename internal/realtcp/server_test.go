package realtcp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/resp"
)

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn
}

// readReplies reads n replies, each returned as its wire form.
func readReplies(conn net.Conn, p *resp.Parser, n int) ([]string, error) {
	var out []string
	for len(out) < n {
		v, ok, err := p.Next()
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, string(resp.AppendValue(nil, v)))
			continue
		}
		c, err := conn.Read(p.Space(4096))
		p.Commit(c)
		if err != nil {
			return out, fmt.Errorf("after %d of %d replies: %w", len(out), n, err)
		}
	}
	return out, nil
}

// do sends wire and reads its n replies on the test's own goroutine.
func do(t *testing.T, conn net.Conn, p *resp.Parser, wire []byte, n int) []string {
	t.Helper()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	out, err := readReplies(conn, p, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A GET's reply is a view of the bytes the next SET in the same batch
// overwrites in place; it has to be encoded before that SET runs.
func TestPipelinedGetSetGetSeesOldThenNew(t *testing.T) {
	addr, _ := startServer(t)
	conn := dialRaw(t, addr)
	var p resp.Parser
	do(t, conn, &p, resp.Command("SET", "k", "old-value"), 1)
	batch := resp.Command("GET", "k")
	batch = append(batch, resp.Command("SET", "k", "new-value")...)
	batch = append(batch, resp.Command("GET", "k")...)
	batch = append(batch, resp.Command("MGET", "k", "k")...)
	got := do(t, conn, &p, batch, 4)
	want := []string{"$9\r\nold-value\r\n", "+OK\r\n", "$9\r\nnew-value\r\n", "*2\r\n$9\r\nnew-value\r\n$9\r\nnew-value\r\n"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// Two connections set and get one key with values of different lengths, so
// that SETs overwrite in place, shrink and reallocate under the GETs. Every
// GET must return one of the written values, whole. Run under -race.
func TestConcurrentGetSetOneKey(t *testing.T) {
	addr, _ := startServer(t)
	values := map[string]bool{}
	var sets [][]byte
	for i, size := range []int{1, 40, 700, 9000, 300, 9000, 16} {
		v := strings.Repeat(string(rune('a'+i)), size)
		values[v] = true
		sets = append(sets, resp.Command("SET", "shared", v))
	}
	get := resp.Command("GET", "shared")
	do(t, dialRaw(t, addr), new(resp.Parser), sets[0], 1)

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		conn := dialRaw(t, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var p resp.Parser
			for i := 0; i < 300; i++ {
				// A pipelined batch: SETs and GETs interleave with the
				// other connection's at command granularity.
				var batch []byte
				for j := 0; j < 4; j++ {
					batch = append(append(batch, sets[(i+j+3*c)%len(sets)]...), get...)
				}
				if _, err := conn.Write(batch); err != nil {
					t.Error(err)
					return
				}
				replies, err := readReplies(conn, &p, 8)
				if err != nil {
					t.Error(err)
					return
				}
				for j, r := range replies {
					if j%2 == 0 {
						if r != "+OK\r\n" {
							t.Errorf("SET reply %q", r)
						}
						continue
					}
					v := r[strings.Index(r, "\r\n")+2 : len(r)-2]
					if !values[v] {
						t.Errorf("GET returned %d bytes %.20q..., not one of the written values", len(v), v)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// A client that pipelines GETs of a 16 KiB value and never reads a reply: the
// handler must block in Write with its output buffer bounded, not encode
// everything it was asked for, and must go away when the client does.
func TestNonReadingClientCannotGrowServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	srv := NewServer(kv.NewEngine(kv.NewStore(func() time.Duration { return 0 })))
	srv.BufBytes = 32 << 10
	srv.engine.Store().Set("big", make([]byte, 16<<10), 0)
	var executed atomic.Uint64
	srv.OnRequest = func(time.Duration) { executed.Add(1) }
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()
	commands := executed.Load
	runtime.GC()
	base := runtime.NumGoroutine()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const gets = 16 << 10 // 256 MiB of replies
	conn := dialRaw(t, addr)
	wire := bytes.Repeat(resp.Command("GET", "big"), gets)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		conn.Write(wire) // may block for good once the server stops reading; Close ends it
	}()
	// Stalled: the count of executed commands stops moving.
	last, still := uint64(0), 0
	for deadline := time.Now().Add(20 * time.Second); still < 5; {
		if time.Now().After(deadline) {
			t.Fatal("server never stalled")
		}
		time.Sleep(20 * time.Millisecond)
		if n := commands(); n == last && n > 0 {
			still++
		} else {
			last, still = n, 0
		}
	}
	if last >= gets {
		t.Fatalf("server executed all %d GETs with nobody reading the replies", gets)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The request stream (wire, 350 KiB) is this test's; the server's share is
	// the parser's buffer and out, each bounded by 2 × BufBytes.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc) - int64(len(wire)); grown > int64(4*srv.BufBytes)+256<<10 {
		t.Fatalf("heap grew by %d bytes while %d replies of 16 KiB waited for a reader", grown, last)
	}
	buf := make([]byte, 1<<16)
	if n := runtime.Stack(buf, true); !bytes.Contains(buf[:n], []byte("realtcp.(*Server).handle")) || !bytes.Contains(buf[:n], []byte(".Write(")) {
		t.Fatalf("no handler blocked in Write:\n%s", buf[:n])
	}

	conn.Close()
	<-writerDone
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: base %d, now %d:\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProtocolErrorsCloseTheConnection(t *testing.T) {
	addr, _ := startServer(t)
	for name, garbage := range map[string]string{
		"bad bulk length":  "*2\r\n$3\r\nGET\r\n$abc\r\n",
		"bad terminator":   "*1\r\n$4\r\nPINGxx",
		"oversized header": "$" + strings.Repeat("1", 200),
		"deep nesting":     strings.Repeat("*1\r\n", 100),
	} {
		conn := dialRaw(t, addr)
		// A good request first: its reply and the error share one write.
		if _, err := conn.Write(append(resp.Command("PING"), garbage...)); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("%s: connection not closed cleanly: %v", name, err)
		}
		if !strings.HasPrefix(string(got), "+PONG\r\n-ERR protocol error") || !strings.HasSuffix(string(got), "\r\n") {
			t.Fatalf("%s: server sent %q", name, got)
		}
	}
}

// OnRequest fires once per executed command, pipelined or not, and never for
// a protocol error; Conns counts the open connections.
func TestServerOnRequestAndConns(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	store := kv.NewStore(func() time.Duration { return time.Duration(time.Now().UnixNano()) })
	srv := NewServer(kv.NewEngine(store))
	var calls atomic.Int64
	srv.OnRequest = func(time.Duration) { calls.Add(1) }
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	waitConns := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); srv.Conns() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Conns() = %d, want %d", srv.Conns(), want)
			}
		}
	}

	conn := dialRaw(t, l.Addr().String())
	waitConns(1)
	var p resp.Parser
	var batch []byte
	for i := 0; i < 16; i++ {
		batch = append(batch, resp.Command("SET", fmt.Sprintf("k%d", i), "v")...)
	}
	do(t, conn, &p, batch, 16)
	do(t, conn, &p, resp.Command("SET", "k", "v"), 1)
	if got := calls.Load(); got != 17 {
		t.Fatalf("OnRequest fired %d times, want 17", got)
	}
	conn.Close()
	waitConns(0)

	bad := dialRaw(t, l.Addr().String())
	if _, err := bad.Write([]byte("*2\r\n$3\r\nGET\r\n$abc\r\n")); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(bad); err != nil || !strings.HasPrefix(string(got), "-ERR protocol error") {
		t.Fatalf("protocol error reply = %q, %v", got, err)
	}
	waitConns(0)
	if got := calls.Load(); got != 17 {
		t.Fatalf("OnRequest fired %d times after a protocol error, want 17", got)
	}
}
