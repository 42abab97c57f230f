// Package realtcp is the real-socket counterpart of the simulation: the
// mini-Redis engine served over kernel TCP, and a client that maintains the
// paper's userspace counters (create/complete hints, §3.3), derives live
// end-to-end estimates from them, and dynamically toggles TCP_NODELAY via
// the ε-greedy policy — the portion of the paper's proposal that can run on
// stock kernels with no patches ("userspace emulation with counters and
// NODELAY toggling only").
//
// Both ends read and write a TCP socket with raw read(2) and write(2) calls
// through the netpoller (rawio.go): the userspace deployment's cost is a
// wake-up per batch, and Go's ordinary system-call entry adds a wake-up of
// the runtime's monitor thread to each. Any other net.Conn is read and
// written through its own methods. The package is Unix-only.
package realtcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
)

// Server serves the mini-Redis engine over real TCP connections. Command
// execution is serialized on one mutex, mirroring Redis's single-threaded
// command loop.
type Server struct {
	mu     sync.Mutex
	engine *kv.Engine

	wg sync.WaitGroup

	connMu   sync.Mutex   // guards the three below
	listener net.Listener // Serve publishes, Close reads
	closed   bool
	conns    map[net.Conn]struct{}

	// Nagle controls whether accepted connections keep Nagle enabled
	// (false sets TCP_NODELAY, Redis's default behaviour).
	Nagle bool

	// OnRequest, when non-nil, receives every command's server-side
	// execution latency (parse-to-reply, excluding socket I/O). Set before
	// Serve; it is called from connection-handler goroutines and must be
	// safe for concurrent use.
	OnRequest func(d time.Duration)

	// BufBytes sizes the per-connection read/write buffers (default
	// 64 KiB). High-fan-in servers size this down: 50k connections at the
	// default would pin ~9 GB of buffers alone.
	BufBytes int
}

// NewServer returns a server around engine.
func NewServer(engine *kv.Engine) *Server {
	return &Server{engine: engine, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close. It returns the first
// non-temporary accept error, or nil after Close.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	s.listener = l
	closed := s.closed
	s.connMu.Unlock()
	if closed {
		// Close ran before the listener was published; it is our job to
		// release it.
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			if s.closed {
				return nil
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			if err := tc.SetNoDelay(!s.Nagle); err != nil {
				conn.Close()
				continue
			}
		}
		// Counted under connMu, like Close's decision to wait: a handler is
		// either counted before Close waits or never started.
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// Conns returns the number of open connections.
func (s *Server) Conns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// Close stops accepting, closes active connections, and waits for their
// handlers to finish. It is idempotent.
func (s *Server) Close() {
	s.connMu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	bufBytes := s.BufBytes
	if bufBytes <= 0 {
		bufBytes = 64 << 10
	}
	// Two buffers per connection: the parser's, which the socket is read
	// into directly, and out, which collects the replies of one batch.
	rw := newRawIO(conn)
	var parser resp.Parser
	parser.Space(bufBytes)
	out := make([]byte, 0, bufBytes)
	var args [][]byte
	timed := s.OnRequest != nil
	for {
		var begin time.Time
		if timed {
			begin = time.Now()
		}
		var ok bool
		var perr error
		if args, ok, perr = parser.NextCommand(args[:0]); perr != nil {
			out = resp.AppendValue(out, resp.Err("ERR protocol error: %v", perr))
		} else if ok {
			// The reply is encoded under the lock: a GET's is a view of the
			// store's buffer, which the next SET of that key, from any
			// connection, may overwrite in place.
			s.mu.Lock()
			out = resp.AppendValue(out, s.engine.Exec(args))
			s.mu.Unlock()
			if timed {
				s.OnRequest(time.Since(begin))
			}
		}
		// Replies go out when nothing more is decodable, so pipelined commands
		// share one write — and early once out holds BufBytes, so a client that
		// pipelines reads of large values and never reads cannot grow it.
		if len(out) > 0 && (!ok || len(out) >= bufBytes) {
			if _, err := rw.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
		if perr != nil {
			return
		}
		if !ok {
			// The buffer grows only for a request over half its size.
			n, err := rw.Read(parser.Space(bufBytes / 2))
			parser.Commit(n)
			if err != nil {
				return
			}
		}
	}
}

// Client is a pipelined RESP client over a real TCP connection with the
// paper's userspace instrumentation: a hints.Tracker fed by create/complete
// around every run of requests, from which live Little's-law estimates are
// drawn.
type Client struct {
	conn    net.Conn
	opts    DialOptions // defaults filled in
	tracker *hints.Tracker
	start   time.Time

	// sendMu is the send order: a run's stamp enters runs and its bytes
	// enter sendBuf under it, and Flush writes under it, so replies pair
	// with stamps FIFO whoever sends. The read loop never takes it, so a
	// sender may wait for window room while holding it.
	sendMu  sync.Mutex
	sendBuf []byte
	wr      *rawIO // the senders' own: the read loop has another

	// runs is the ring of stamped runs awaiting replies, one entry per
	// Queue call: single producer (whoever holds sendMu) at head, single
	// consumer (the read loop) at tail. Every run holds at least one
	// request and at most MaxInflight are unanswered, so MaxInflight slots
	// never overflow. issued and acked count requests; issued is published
	// after its run's slot is written and acked after its runs' slots are
	// read, so each side sees the other's slots complete.
	runs   []run
	head   int // sendMu
	tail   int // read loop only
	into   int // read loop only: requests of runs[tail] already completed
	issued atomic.Uint64
	acked  atomic.Uint64
	freed  chan struct{} // the read loop's wake-up for a sender waiting on room

	done    chan struct{}
	readErr error

	nodelay atomic.Bool
}

// run is requests handed over together: n of them, stamped sentNs, the
// first due at dueNs and the rest gapNs apart.
type run struct {
	sentNs, dueNs, gapNs int64
	n                    int
}

// DialOptions configure a client. The zero value blocks indefinitely on
// connect and read and reports completions to nobody.
type DialOptions struct {
	// MaxInflight bounds pipelining depth (<= 0: 1024).
	MaxInflight int
	// DialTimeout bounds the connect; zero blocks indefinitely.
	DialTimeout time.Duration
	// ReadBufBytes sizes the read-loop buffer (default 64 KiB). Fleet
	// clients size this down: per-connection buffers dominate memory at
	// 50k connections.
	ReadBufBytes int
	// OnComplete, when non-nil, receives every completion as runs: n
	// consecutive requests from firstID (their FIFO indices on this
	// connection, from 0; RESP's ordering makes them the issue indices),
	// handed over together at sentNs and answered by one read at ackNs,
	// both in nanoseconds on the client's clock (Elapsed), so ackNs −
	// sentNs is each one's latency. The first of the n was due at dueNs on
	// the same clock and the i-th gapNs·i later, so ackNs − dueNs − i·gapNs
	// is its response time from its schedule; a request handed over as it
	// was due has dueNs = sentNs. A run a read cut in two arrives as two
	// calls. It runs on the read loop and must not block. The client keeps
	// no latencies of its own.
	OnComplete func(firstID uint64, n int, sentNs, ackNs, dueNs, gapNs int64)
	// LocalAddr, when non-empty, is the local address to dial from (e.g.
	// "127.0.0.5:0"). High-fan-in loopback fleets rotate source IPs here
	// to stretch past the ~28k ephemeral ports of a single 4-tuple prefix.
	LocalAddr string
}

// Dial connects to a mini-Redis server and starts the response reader.
// maxInflight bounds pipelining depth.
func Dial(addr string, maxInflight int) (*Client, error) {
	return DialWith(addr, DialOptions{MaxInflight: maxInflight})
}

// DialWith is Dial with explicit failure-handling options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	if opts.LocalAddr != "" {
		la, err := net.ResolveTCPAddr("tcp", opts.LocalAddr)
		if err != nil {
			return nil, err
		}
		d.LocalAddr = la
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, opts), nil
}

// NewClient starts a client, response reader included, on a connection the
// caller made and may have wrapped; DialTimeout and LocalAddr do not apply.
func NewClient(nc net.Conn, opts DialOptions) *Client {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 1024
	}
	if opts.ReadBufBytes <= 0 {
		opts.ReadBufBytes = 64 << 10
	}
	c := &Client{
		conn:  nc,
		wr:    newRawIO(nc),
		opts:  opts,
		start: time.Now(),
		runs:  make([]run, opts.MaxInflight),
		freed: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	c.nodelay.Store(true) // Go's net package default
	c.tracker = hints.NewTracker(func() qstate.Time { return qstate.Time(time.Since(c.start)) })
	go c.readLoop()
	return c
}

// SetNoDelay toggles TCP_NODELAY — the dynamic batching knob. Setting the
// mode already set makes no system call; a failed set leaves the mode as it
// was, so the next call tries again.
func (c *Client) SetNoDelay(v bool) error {
	if c.nodelay.Load() == v {
		return nil
	}
	if nd, ok := c.conn.(interface{ SetNoDelay(bool) error }); ok {
		if err := nd.SetNoDelay(v); err != nil {
			return err
		}
	}
	c.nodelay.Store(v)
	return nil
}

// NoDelay reports the last mode set.
func (c *Client) NoDelay() bool { return c.nodelay.Load() }

// errRunTooLarge is Queue's answer to a run the window can never hold.
var errRunTooLarge = errors.New("realtcp: run larger than MaxInflight")

// Queue hands n copies of one request to the client at one instant without
// writing them: one clock reading stamps the run's latency clock and its
// create hint, and the bytes wait for the next Flush. Without room for n
// more unanswered requests Queue flushes and waits for replies; a run over
// MaxInflight fails at once.
//
//e2e:hotpath
func (c *Client) Queue(cmd []byte, n int) error { return c.queueLate(cmd, n, 0, 0) }

// queueLate is Queue for n requests scheduled gap apart, the first of them
// due lag before the hand-over: the run keeps their schedule for the
// completion hook, and the stamp and the create hint stay the hand-over's.
//
//e2e:hotpath
func (c *Client) queueLate(cmd []byte, n int, lag, gap time.Duration) error {
	if n <= 0 {
		return nil
	}
	if n > len(c.runs) {
		return errRunTooLarge
	}
	c.sendMu.Lock()
	err := c.awaitRoom(n)
	if err == nil {
		sentNs := int64(c.tracker.Create(n))
		c.runs[c.head] = run{sentNs: sentNs, dueNs: sentNs - int64(lag), gapNs: int64(gap), n: n}
		c.head = (c.head + 1) % len(c.runs)
		c.issued.Add(uint64(n))
		for i := 0; i < n; i++ {
			//lint:ignore e2elint/hotpath grows to the largest batch queued between flushes, then is reused
			c.sendBuf = append(c.sendBuf, cmd...)
		}
	}
	c.sendMu.Unlock()
	return err
}

// room returns how many more requests the window holds now. Only the read
// loop frees room, so a caller that is the only sender may count on it.
func (c *Client) room() int {
	return len(c.runs) - int(c.issued.Load()-c.acked.Load())
}

// awaitRoom waits, under sendMu, until the window holds n more requests.
func (c *Client) awaitRoom(n int) error {
	for c.room() < n {
		// The replies about to be waited for may be to requests still queued.
		if err := c.flushLocked(); err != nil {
			return err
		}
		select {
		case <-c.done:
			return c.readErr
		case <-c.freed:
		}
	}
	return nil
}

// Flush writes the queued requests in one Write, the only one the client
// issues; with none queued it does nothing.
func (c *Client) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.flushLocked()
}

func (c *Client) flushLocked() error {
	if len(c.sendBuf) == 0 {
		return nil
	}
	_, err := c.wr.Write(c.sendBuf)
	c.sendBuf = c.sendBuf[:0]
	return err
}

// Send issues one request, on the wire when it returns; its completion is
// recorded when the matching response arrives (FIFO order, as RESP guarantees).
func (c *Client) Send(cmd []byte) error {
	if err := c.Queue(cmd, 1); err != nil {
		return err
	}
	return c.Flush()
}

// Outstanding returns requests awaiting responses.
func (c *Client) Outstanding() int64 { return c.tracker.Outstanding() }

// Done returns a channel closed when the client's read loop has exited —
// failure or Close. Fleet timers poll it non-blockingly to detect dead
// connections without owning a goroutine per connection.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close shuts the connection down and stops the reader.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// readLoop publishes why read stopped: readErr is written before done
// closes and read only after, so it needs no lock.
func (c *Client) readLoop() {
	if c.readErr = c.read(); c.readErr == nil {
		c.readErr = io.ErrClosedPipe
	}
	close(c.done)
}

// read has the server's shape: the socket is read straight into the parser's
// buffer and replies are counted, not built. A closed connection ends it nil.
func (c *Client) read() error {
	rd := newRawIO(c.conn)
	var parser resp.Parser
	parser.Space(c.opts.ReadBufBytes)
	for {
		// The buffer grows only for a reply over half its size.
		n, err := rd.Read(parser.Space(c.opts.ReadBufBytes / 2))
		parser.Commit(n)
		k := 0
		for n > 0 {
			_, ok, perr := parser.Skip()
			if perr != nil {
				return fmt.Errorf("realtcp: corrupt response stream: %w", perr)
			}
			if !ok {
				break
			}
			k++
		}
		if uint64(k) > c.issued.Load()-c.acked.Load() { // acked moves only here
			return errors.New("realtcp: response without pending request")
		} else if k > 0 {
			c.complete(k)
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

// complete pairs the k replies one read held with the oldest k requests, on
// one clock reading and one Complete, and reports them to the completion
// hook run by run, splitting the run the read ended inside.
//
//e2e:hotpath
func (c *Client) complete(k int) {
	ackNs := int64(c.tracker.Complete(k))
	id := c.acked.Load()
	for k > 0 {
		r := c.runs[c.tail]
		m := min(k, r.n-c.into)
		dueNs := r.dueNs + int64(c.into)*r.gapNs
		if c.into += m; c.into == r.n {
			c.tail, c.into = (c.tail+1)%len(c.runs), 0
		}
		if c.opts.OnComplete != nil {
			c.opts.OnComplete(id, m, r.sentNs, ackNs, dueNs, r.gapNs)
		}
		id += uint64(m)
		k -= m
	}
	c.acked.Store(id)
	select {
	case c.freed <- struct{}{}:
	default:
	}
}
