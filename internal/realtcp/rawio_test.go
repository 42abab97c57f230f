package realtcp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/resp"
)

// loopbackPair returns both ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (near, far *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// reset makes c's close send a reset instead of a FIN.
func reset(t *testing.T, c *net.TCPConn) {
	t.Helper()
	if err := c.SetLinger(0); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestRawIOOnlyOnNonBlockingSockets(t *testing.T) {
	near, _ := loopbackPair(t)
	if newRawIO(near).rc == nil {
		t.Fatal("a loopback TCP connection did not take the raw path")
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if newRawIO(a).rc != nil {
		t.Fatal("net.Pipe took the raw path")
	}
	closed, _ := loopbackPair(t)
	closed.Close()
	if newRawIO(closed).rc != nil {
		t.Fatal("a closed connection took the raw path")
	}
}

// The raw path fails as net.Conn does: each scenario runs on two fresh
// connections, one read or written through net.Conn and one through rawIO,
// and the errors must match in kind and in message, addresses aside.
func TestRawIOErrorsMatchNetConn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write bool
		setup func(t *testing.T, near, far *net.TCPConn)
	}{
		{"peer close", false, func(t *testing.T, _, far *net.TCPConn) { far.Close() }},
		{"peer reset", false, func(t *testing.T, _, far *net.TCPConn) { reset(t, far) }},
		{"closed", false, func(t *testing.T, near, _ *net.TCPConn) { near.Close() }},
		{"deadline", false, func(t *testing.T, near, _ *net.TCPConn) { near.SetReadDeadline(time.Now().Add(-time.Second)) }},
		{"write after close", true, func(t *testing.T, near, _ *net.TCPConn) { near.Close() }},
		{"write after reset", true, func(t *testing.T, near, far *net.TCPConn) {
			reset(t, far)
			near.Read(make([]byte, 1)) // returns once the reset has arrived
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]string
			var errs [2]error
			for i := range got {
				near, far := loopbackPair(t)
				laddr, raddr := near.LocalAddr().String(), near.RemoteAddr().String()
				var conn interface {
					Read([]byte) (int, error)
					Write([]byte) (int, error)
				} = near
				if i == 1 {
					r := newRawIO(near)
					if r.rc == nil {
						t.Fatal("no raw path")
					}
					conn = r
				}
				tc.setup(t, near, far)
				buf := make([]byte, 64)
				if tc.write {
					_, errs[i] = conn.Write(buf)
				} else {
					_, errs[i] = conn.Read(buf)
				}
				if errs[i] == nil {
					t.Fatalf("side %d: no error", i)
				}
				got[i] = strings.NewReplacer(laddr, "LOCAL", raddr, "REMOTE").Replace(fmt.Sprintf("%T %v", errs[i], errs[i]))
			}
			if got[0] != got[1] {
				t.Fatalf("net.Conn fails with %s; the raw path with %s", got[0], got[1])
			}
			for _, target := range []error{io.EOF, net.ErrClosed, syscall.ECONNRESET, syscall.EPIPE} {
				if errors.Is(errs[0], target) != errors.Is(errs[1], target) {
					t.Fatalf("errors.Is(%v) differs: net.Conn %v, raw %v", target, errs[0], errs[1])
				}
			}
		})
	}
}

// tinySendListener hands out accepted connections with an 8 KiB send
// buffer, so a large reply takes many write(2)s and waits for room between
// them.
type tinySendListener struct{ net.Listener }

func (l tinySendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(8 << 10)
	}
	return c, err
}

// A reply larger than both socket buffers, to a client that waits before
// reading, leaves the server's raw write parked in the netpoller part-way,
// and still arrives whole and in order once the client reads.
func TestRawWriteResumesPartialWrite(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	srv := NewServer(kv.NewEngine(kv.NewStore(func() time.Duration { return 0 })))
	const keys, size = 64, 16 << 10 // a 1 MiB reply
	mget := [][]byte{[]byte("MGET")}
	want := fmt.Appendf(nil, "*%d\r\n", keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		v := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		v[0] = byte(i) // each value differs, so a reordered or repeated one shows
		srv.engine.Store().Set(key, v, 0)
		mget = append(mget, []byte(key))
		want = append(fmt.Appendf(want, "$%d\r\n", size), v...)
		want = append(want, "\r\n"...)
	}
	go srv.Serve(tinySendListener{l})
	t.Cleanup(srv.Close)

	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		})
		return errors.Join(err, serr)
	}}
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(resp.AppendCommand(nil, mget...)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n := runtime.Stack(buf, true)
		if bytes.Contains(buf[:n], []byte("realtcp.(*rawIO).Write(")) && bytes.Contains(buf[:n], []byte("poll.(*FD).RawWrite(")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server's raw write never waited for room:\n%s", buf[:n])
		}
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("the %d-byte reply differs from byte %d on", len(want), i)
	}
}

// One scripted request stream gets byte-identical replies whether Server
// reads and writes a loopback socket (the raw path) or a net.Pipe (the
// connection's own Read and Write). It ends in a protocol error, which
// closes either connection after its reply.
func TestServerRepliesAlikeOverEitherPath(t *testing.T) {
	stream := bytes.Join([][]byte{
		resp.Command("PING"),
		resp.Command("SET", "a", "1"),
		resp.Command("SET", "big", strings.Repeat("x", 40<<10)),
		append(resp.Command("GET", "a"), resp.Command("MGET", "a", "big", "missing")...), // pipelined
		[]byte("PING inline\r\n"),
		resp.Command("NOSUCH", "x"),
		resp.Command("GET", "big"),
		[]byte("*1\r\n$abc\r\n"),
	}, nil)
	serve := func(conn, peer net.Conn) []byte {
		srv := NewServer(kv.NewEngine(kv.NewStore(func() time.Duration { return 0 })))
		done := make(chan struct{})
		go func() { defer close(done); srv.handle(conn) }()
		go peer.Write(stream) // a pipe's Write waits for its reader; the server's close ends it
		peer.SetDeadline(time.Now().Add(10 * time.Second))
		got, err := io.ReadAll(peer)
		if err != nil {
			t.Fatal(err)
		}
		<-done
		return got
	}
	near, far := loopbackPair(t)
	overTCP := serve(far, near)
	a, b := net.Pipe()
	defer b.Close()
	overPipe := serve(a, b)
	if !bytes.Equal(overTCP, overPipe) || !bytes.HasSuffix(overTCP, []byte("\r\n")) ||
		!bytes.Contains(overTCP, []byte("-ERR protocol error")) {
		t.Fatalf("replies differ:\nTCP  %.200q\npipe %.200q", overTCP, overPipe)
	}
}

// How a client's read loop ends, over the raw path: its own Close and the
// server's close end it without an error (readErr io.ErrClosedPipe); a
// reset ends it with the reset. A peer close ends the server's handler.
func TestClientEndOfStream(t *testing.T) {
	addr, srv := startServer(t)
	c := dialOrFail(t, addr, DialOptions{})
	if err := roundTrip(c, resp.Command("PING")); err != nil {
		t.Fatal(err)
	}
	if srv.Conns() != 1 {
		t.Fatalf("%d server connections, want 1", srv.Conns())
	}
	c.Close()
	if c.readErr != io.ErrClosedPipe {
		t.Fatalf("Close ended the read loop with %v, want io.ErrClosedPipe", c.readErr)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Conns() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the peer's close never ended the server's handler")
		}
	}

	for _, tc := range []struct {
		name  string
		close func(*net.TCPConn)
		want  error
	}{
		{"peer close", func(c *net.TCPConn) { c.Close() }, io.ErrClosedPipe},
		{"peer reset", func(c *net.TCPConn) { reset(t, c) }, syscall.ECONNRESET},
	} {
		near, far := loopbackPair(t)
		c := NewClient(near, DialOptions{})
		tc.close(far)
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the read loop never ended", tc.name)
		}
		if !errors.Is(c.readErr, tc.want) {
			t.Fatalf("%s: read loop ended with %v, want %v", tc.name, c.readErr, tc.want)
		}
		c.Close()
	}
}
