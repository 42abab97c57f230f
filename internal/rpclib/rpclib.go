// Package rpclib is a minimal request-response RPC runtime with the paper's
// create/complete hint API built in — the integration §3.3 envisions for
// frameworks "like gRPC and Thrift": applications get accurate end-to-end
// performance estimation for free, with no per-call instrumentation of
// their own, because the runtime invokes create(n) when calls are issued
// and complete(n) when their responses are consumed.
//
// The wire format is a simple length-prefixed frame:
//
//	uint32 big-endian: payload length
//	uint64 big-endian: call id (responses echo the request's id)
//	uint8:             kind (0 = request, 1 = response, 2 = error)
//	payload bytes
//
// The runtime runs both over the simulated stack (event-driven) and over
// any io.ReadWriter; only the simulated flavour is wired here because that
// is where the experiments live.
package rpclib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// Frame kinds.
const (
	KindRequest  = 0
	KindResponse = 1
	KindError    = 2
)

const headerSize = 4 + 8 + 1

// maxFrame bounds a frame's payload to keep a corrupt length prefix from
// swallowing the stream.
const maxFrame = 64 << 20

// AppendFrame appends the wire form of one frame.
func AppendFrame(buf []byte, id uint64, kind byte, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:], id)
	hdr[12] = kind
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Frame is one decoded frame.
type Frame struct {
	ID      uint64
	Kind    byte
	Payload []byte
}

// ErrFrame is wrapped by framing errors.
var ErrFrame = errors.New("rpclib: framing error")

// Decoder incrementally decodes frames from a byte stream. The zero value
// is ready to use.
type Decoder struct {
	buf []byte
	off int
}

// Feed appends stream bytes.
func (d *Decoder) Feed(b []byte) {
	if d.off > 0 && d.off >= len(d.buf)/2 {
		d.buf = append(d.buf[:0], d.buf[d.off:]...)
		d.off = 0
	}
	d.buf = append(d.buf, b...)
}

// Next pops one complete frame; ok is false when more bytes are needed.
func (d *Decoder) Next() (f Frame, ok bool, err error) {
	b := d.buf[d.off:]
	if len(b) < headerSize {
		return Frame{}, false, nil
	}
	n := int(binary.BigEndian.Uint32(b[0:]))
	if n > maxFrame {
		return Frame{}, false, fmt.Errorf("%w: frame length %d", ErrFrame, n)
	}
	if len(b) < headerSize+n {
		return Frame{}, false, nil
	}
	f = Frame{
		ID:      binary.BigEndian.Uint64(b[4:]),
		Kind:    b[12],
		Payload: append([]byte(nil), b[headerSize:headerSize+n]...),
	}
	d.off += headerSize + n
	return f, true, nil
}

// Handler processes one request payload and returns the response payload or
// an error (sent as a KindError frame).
type Handler func(method uint64, payload []byte) ([]byte, error)

// Server serves RPC frames on a simulated connection, charging the host's
// app CPU per the given cost profile.
type Server struct {
	conn    *tcpsim.Conn
	handler Handler
	dec     Decoder
	busy    bool
	pending []Frame

	// PerCall and PerByteNS price handler execution on the app CPU.
	PerCall   time.Duration
	PerByteNS float64

	served uint64
}

// NewServer attaches a server to conn.
func NewServer(conn *tcpsim.Conn, h Handler) *Server {
	if h == nil {
		panic("rpclib: nil handler")
	}
	s := &Server{conn: conn, handler: h}
	conn.OnReadable(s.wake)
	return s
}

// Served returns how many calls completed.
func (s *Server) Served() uint64 { return s.served }

func (s *Server) wake() {
	if s.busy {
		return
	}
	s.busy = true
	s.cycle()
}

func (s *Server) cycle() {
	data := s.conn.Read(0)
	if len(data) > 0 {
		s.dec.Feed(data)
	}
	for {
		f, ok, err := s.dec.Next()
		if err != nil {
			s.conn.OnReadable(nil)
			s.busy = false
			return
		}
		if !ok {
			break
		}
		s.pending = append(s.pending, f)
	}
	s.next()
}

func (s *Server) next() {
	if len(s.pending) == 0 {
		s.busy = false
		if s.conn.Readable() > 0 {
			s.wake()
		}
		return
	}
	f := s.pending[0]
	s.pending = s.pending[1:]
	cost := s.PerCall + time.Duration(float64(len(f.Payload))*s.PerByteNS)
	s.conn.Stack().AppCPU.Exec(cost, sim.Func(func() {
		out, err := s.handler(f.ID, f.Payload)
		kind := byte(KindResponse)
		if err != nil {
			kind = KindError
			out = []byte(err.Error())
		}
		s.conn.Send(AppendFrame(nil, f.ID, kind, out))
		s.served++
		s.next()
	}), 0, nil)
}

// Client issues RPC calls over a simulated connection. The runtime owns a
// hints.Tracker: Call invokes create(1), and the response handler invokes
// complete(1) — exactly the library-level integration §3.3 proposes.
type Client struct {
	conn *tcpsim.Conn
	s    *sim.Sim
	dec  Decoder

	tracker *hints.Tracker

	nextID  uint64
	pending map[uint64]func(Frame)

	// PerCall prices call issue on the client app CPU.
	PerCall time.Duration

	completed uint64
	failed    uint64
}

// NewClient attaches a client runtime to conn.
func NewClient(s *sim.Sim, conn *tcpsim.Conn) *Client {
	c := &Client{
		conn:    conn,
		s:       s,
		pending: make(map[uint64]func(Frame)),
	}
	c.tracker = hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	conn.OnReadable(c.onReadable)
	return c
}

// Tracker exposes the runtime-maintained queue state (what the kernel would
// receive via ancillary data).
func (c *Client) Tracker() *hints.Tracker { return c.tracker }

// Completed and Failed report call outcomes.
func (c *Client) Completed() uint64 { return c.completed }

// Failed reports calls answered with KindError.
func (c *Client) Failed() uint64 { return c.failed }

// Outstanding returns issued-but-unanswered calls.
func (c *Client) Outstanding() int64 { return c.tracker.Outstanding() }

// Call issues a request; done (may be nil) runs when the response arrives.
// The hint bookkeeping is entirely the runtime's.
func (c *Client) Call(payload []byte, done func(resp Frame)) uint64 {
	id := c.nextID
	c.nextID++
	c.pending[id] = done
	c.tracker.Create(1)
	wire := AppendFrame(nil, id, KindRequest, payload)
	c.conn.Stack().AppCPU.Exec(c.PerCall, sim.Func(func() { c.conn.Send(wire) }), 0, nil)
	return id
}

func (c *Client) onReadable() {
	data := c.conn.Read(0)
	if len(data) == 0 {
		return
	}
	c.dec.Feed(data)
	for {
		f, ok, err := c.dec.Next()
		if err != nil {
			panic(fmt.Sprintf("rpclib: corrupt response stream: %v", err))
		}
		if !ok {
			return
		}
		done, exists := c.pending[f.ID]
		if !exists {
			panic(fmt.Sprintf("rpclib: response for unknown call %d", f.ID))
		}
		delete(c.pending, f.ID)
		c.tracker.Complete(1)
		if f.Kind == KindError {
			c.failed++
		} else {
			c.completed++
		}
		if done != nil {
			done(f)
		}
	}
}
