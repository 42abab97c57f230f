// Package realtcp is the real-socket counterpart of the simulation: the
// mini-Redis engine served over kernel TCP, and a client that maintains the
// paper's userspace counters (create/complete hints, §3.3), derives live
// end-to-end estimates from them, and dynamically toggles TCP_NODELAY via
// the ε-greedy policy — the portion of the paper's proposal that can run on
// stock kernels with no patches ("userspace emulation with counters and
// NODELAY toggling only").
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
	"e2ebatch/internal/shard"
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
	// execution latency (parse-to-reply, excluding socket I/O) — the
	// telemetry histogram feed. Set before Serve; it is called from
	// connection-handler goroutines and must be safe for concurrent use.
	OnRequest func(time.Duration)

	// ShardCount, when positive, assigns every accepted connection a shard
	// id by FNV hash of its remote address (shard.HashString mod
	// ShardCount) and feeds the sharded hooks below — the accept-path half
	// of the shared-nothing obs rollup. Zero disables sharded accounting
	// (every hook sees shard 0 if set anyway).
	ShardCount int
	// OnConnShard, when non-nil, is called with (+1) when a connection is
	// accepted and (-1) when its handler exits — per-shard live-connection
	// gauges. Called from accept/handler goroutines; the obs.ShardedGauge
	// single-writer-per-cell rule does not apply here, but obs cells are
	// atomic so concurrent mixed-shard calls are safe.
	OnConnShard func(shard int, delta int)
	// OnRequestShard, when non-nil, receives every command's execution
	// latency attributed to the connection's shard. Independent of
	// OnRequest; both fire when both are set.
	OnRequestShard func(shard int, d time.Duration)

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
		sid := s.shardOf(conn)
		if s.OnConnShard != nil {
			s.OnConnShard(sid, +1)
		}
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				if s.OnConnShard != nil {
					s.OnConnShard(sid, -1)
				}
			}()
			s.handle(conn, sid)
		}()
	}
}

// shardOf maps a connection to its shard id by remote-address hash.
func (s *Server) shardOf(conn net.Conn) int {
	if s.ShardCount <= 0 {
		return 0
	}
	return int(shard.HashString(conn.RemoteAddr().String()) % uint64(s.ShardCount))
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

func (s *Server) handle(conn net.Conn, sid int) {
	defer conn.Close()
	bufBytes := s.BufBytes
	if bufBytes <= 0 {
		bufBytes = 64 << 10
	}
	// Two buffers per connection: the parser's, which the socket is read
	// into directly, and out, which collects the replies of one batch.
	var parser resp.Parser
	parser.Space(bufBytes)
	out := make([]byte, 0, bufBytes)
	var args [][]byte
	timed := s.OnRequest != nil || s.OnRequestShard != nil
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
				d := time.Since(begin)
				if s.OnRequest != nil {
					s.OnRequest(d)
				}
				if s.OnRequestShard != nil {
					s.OnRequestShard(sid, d)
				}
			}
		}
		// Replies go out when nothing more is decodable, so pipelined commands
		// share one write — and early once out holds BufBytes, so a client that
		// pipelines reads of large values and never reads cannot grow it.
		if len(out) > 0 && (!ok || len(out) >= bufBytes) {
			if _, err := conn.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
		if perr != nil {
			return
		}
		if !ok {
			// The buffer grows only for a request over half its size.
			n, err := conn.Read(parser.Space(bufBytes / 2))
			parser.Commit(n)
			if err != nil {
				return
			}
		}
	}
}

// Client is a pipelined RESP client over a real TCP connection with the
// paper's userspace instrumentation: a hints.Tracker fed by create/complete
// around every request, from which live Little's-law estimates are drawn.
type Client struct {
	conn    net.Conn
	opts    DialOptions // defaults filled in
	tracker *hints.Tracker
	est     *hints.Estimator
	start   time.Time

	// sendMu is the send order: a request's stamp enters inflight and its
	// bytes enter sendBuf under it, and Flush writes under it, so replies
	// pair with stamps FIFO whoever sends. The read loop never takes it, so
	// a sender may block on a full inflight while holding it.
	sendMu  sync.Mutex
	sendBuf []byte
	writes  atomic.Uint64 // Writes issued

	inflight chan time.Time
	done     chan struct{}
	readErr  error

	latMu  sync.Mutex
	lats   []time.Duration
	latFn  func(time.Duration)
	compFn func(reqID uint64, sentNs, ackNs int64)
	batch  []time.Duration // read loop only: one pass's latencies, MaxInflight long
	acked  uint64          // read loop only: completions so far

	nodelay atomic.Bool
}

// DialOptions tune a client's failure behaviour. The zero value matches the
// historical Dial: unbounded blocking on both connect and read.
type DialOptions struct {
	// MaxInflight bounds pipelining depth (<= 0: 1024).
	MaxInflight int
	// DialTimeout bounds the connect; zero blocks indefinitely.
	DialTimeout time.Duration
	// ReadTimeout bounds each read in the response loop; a read that
	// exceeds it fails the client (the reconnect layer then redials).
	// Zero blocks indefinitely — correct only against a server that
	// cannot hang.
	ReadTimeout time.Duration
	// ReadBufBytes sizes the read-loop buffer (default 64 KiB). Fleet
	// clients size this down: per-connection buffers dominate memory at
	// 50k connections.
	ReadBufBytes int
	// DiscardLatencyLog disables the per-request latency accumulation that
	// Latencies() drains, leaving only the ObserveLatencies live feed —
	// fleet connections record into fixed-size histograms instead of
	// unbounded slices.
	DiscardLatencyLog bool
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
		conn:     nc,
		opts:     opts,
		start:    time.Now(),
		inflight: make(chan time.Time, opts.MaxInflight),
		done:     make(chan struct{}),
		batch:    make([]time.Duration, opts.MaxInflight),
	}
	c.nodelay.Store(true) // Go's net package default
	c.tracker = hints.NewTracker(func() qstate.Time { return qstate.Time(time.Since(c.start)) })
	c.est = hints.NewEstimator(c.tracker)
	c.est.Sample() // prime
	go c.readLoop()
	return c
}

// SetNoDelay toggles TCP_NODELAY — the dynamic batching knob.
func (c *Client) SetNoDelay(v bool) error {
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

// Estimate returns the Little's-law averages since the previous call — the
// per-tick observation a toggling policy consumes.
func (c *Client) Estimate() qstate.Avgs { return c.est.Sample() }

// Queue hands one request to the client without writing it: its latency
// clock and its create hint start here, its bytes wait for the next Flush.
// With MaxInflight requests unanswered Queue blocks until a reply arrives.
//
//e2e:hotpath
func (c *Client) Queue(cmd []byte) error {
	c.sendMu.Lock()
	var err error
	if len(c.inflight) == cap(c.inflight) {
		// The replies about to be waited for may be to requests still queued.
		err = c.flushLocked()
	}
	if err == nil {
		select {
		case <-c.done:
			err = c.readErr
		case c.inflight <- time.Now():
			c.tracker.Create(1)
			//lint:ignore e2elint/hotpath grows to the largest batch queued between flushes, then is reused
			c.sendBuf = append(c.sendBuf, cmd...)
		}
	}
	c.sendMu.Unlock()
	return err
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
	_, err := c.conn.Write(c.sendBuf)
	c.sendBuf = c.sendBuf[:0]
	c.writes.Add(1)
	return err
}

// Send issues one request, on the wire when it returns; its completion is
// recorded when the matching response arrives (FIFO order, as RESP guarantees).
func (c *Client) Send(cmd []byte) error {
	if err := c.Queue(cmd); err != nil {
		return err
	}
	return c.Flush()
}

// Do issues one request and waits until all currently outstanding responses
// (including this one) have arrived. It is a convenience for
// request-by-request usage; load generation uses Queue. The wait is a
// yielding poll on the caller's goroutine — no timer state per call.
func (c *Client) Do(cmd []byte) error {
	if err := c.Send(cmd); err != nil {
		return err
	}
	for c.tracker.Outstanding() > 0 {
		select {
		case <-c.done:
			return c.readErr
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// Outstanding returns requests awaiting responses.
func (c *Client) Outstanding() int64 { return c.tracker.Outstanding() }

// Done returns a channel closed when the client's read loop has exited —
// failure or Close. Fleet timers poll it non-blockingly to detect dead
// connections without owning a goroutine per connection.
func (c *Client) Done() <-chan struct{} { return c.done }

// ObserveLatencies installs fn to receive every per-request latency as it
// completes, alongside the drain-style Latencies accumulation — the live
// feed a telemetry histogram wants. fn runs on the read-loop goroutine and
// must not block; pass nil to detach.
func (c *Client) ObserveLatencies(fn func(time.Duration)) {
	c.latMu.Lock()
	c.latFn = fn
	c.latMu.Unlock()
}

// ObserveCompletions installs fn to receive each completion's FIFO index
// and its send/ack timestamps, both in nanoseconds on the client's
// monotonic timebase (elapsed since Dial) — the span-tracing feed. reqID
// counts completions on this connection from 0; RESP's FIFO ordering makes
// it equal the issue index. fn runs on the read-loop goroutine and must
// not block; pass nil to detach. Reconnecting builds a new Client, so
// reqID restarts at 0 per connection incarnation.
func (c *Client) ObserveCompletions(fn func(reqID uint64, sentNs, ackNs int64)) {
	c.latMu.Lock()
	c.compFn = fn
	c.latMu.Unlock()
}

// Latencies drains and returns the per-request latencies recorded so far.
func (c *Client) Latencies() []time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	out := c.lats
	c.lats = nil
	return out
}

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
	var parser resp.Parser
	parser.Space(c.opts.ReadBufBytes)
	for {
		if c.opts.ReadTimeout > 0 {
			if err := c.conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout)); err != nil {
				return err
			}
		}
		// The buffer grows only for a reply over half its size.
		n, err := c.conn.Read(parser.Space(c.opts.ReadBufBytes / 2))
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
		if k > len(c.inflight) { // safe to ask: only this goroutine takes stamps out
			return errors.New("realtcp: response without pending request")
		} else if k > 0 {
			c.complete(k)
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && c.tracker.Outstanding() == 0 {
				// An idle deadline expiry is not a fault: no response is
				// owed. Only a timeout with requests outstanding means
				// the server stopped answering.
				continue
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

// complete pairs the k replies one read held with the k oldest of at least
// k stamps, on one clock reading, one Complete and one latMu acquisition.
//
//e2e:hotpath
func (c *Client) complete(k int) {
	now := time.Now()
	c.tracker.Complete(k)
	batch := c.batch[:k]
	for i := range batch {
		batch[i] = now.Sub(<-c.inflight)
	}
	c.latMu.Lock()
	if !c.opts.DiscardLatencyLog {
		//lint:ignore e2elint/hotpath the latency log is the caller's choice; fleets discard it
		c.lats = append(c.lats, batch...)
	}
	fn, cfn := c.latFn, c.compFn
	c.latMu.Unlock()
	// send = ack − latency: a span lasts exactly what the histograms record.
	ackNs := now.Sub(c.start).Nanoseconds()
	for _, lat := range batch {
		if fn != nil {
			fn(lat)
		}
		if cfn != nil {
			cfn(c.acked, ackNs-lat.Nanoseconds(), ackNs)
		}
		c.acked++
	}
}
