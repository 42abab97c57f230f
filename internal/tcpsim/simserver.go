package tcpsim

import (
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/resp"
)

// SimServerConfig prices the server application's work in the paper's α/β
// terms (§2): ReadCosts.PerBatch is the per-wakeup cost β (epoll return +
// read syscall), ReadCosts.PerItem the per-request cost α, and PerByteNS
// the parse/copy cost. WriteCosts prices response construction and the send
// syscall.
type SimServerConfig struct {
	ReadCosts  cpumodel.Costs
	WriteCosts cpumodel.Costs
}

// DefaultSimServerConfig returns a profile in the ballpark of a Redis server
// handling 16 KiB SETs on the paper's hardware.
func DefaultSimServerConfig() SimServerConfig {
	return SimServerConfig{
		ReadCosts:  cpumodel.Costs{PerBatch: 4 * time.Microsecond, PerItem: 2 * time.Microsecond, PerByteNS: 0.3},
		WriteCosts: cpumodel.Costs{PerItem: 1 * time.Microsecond, PerByteNS: 0.1},
	}
}

// SimServerStats counts server activity; MaxBatch and the Batches/Requests
// ratio expose the adaptive batching behaviour (requests per wakeup) that
// drives the Figure-1 dynamics.
type SimServerStats struct {
	Requests    uint64
	ReadBatches uint64
	MaxBatch    int
	BytesIn     uint64
	BytesOut    uint64
}

// SimServer is the event-driven mini-Redis serving one simulated
// connection: the application-thread half of the paper's server machine.
type SimServer struct {
	engine *kv.Engine
	conn   *Conn
	cfg    SimServerConfig

	parser resp.Parser
	// argv holds the arguments of one read's requests back to back, as views
	// of the parser's buffer; pending[head:] are the requests not yet
	// served. The views stay valid because only a read cycle feeds the
	// parser and one starts only after pending has drained.
	argv    [][]byte
	pending [][][]byte
	head    int
	reply   []byte // wire form of the reply whose send cost is being paid
	busy    bool
	stalled bool

	stats SimServerStats
}

// NewSimServer attaches a server to conn, executing against engine.
func NewSimServer(e *kv.Engine, conn *Conn, cfg SimServerConfig) *SimServer {
	s := &SimServer{engine: e, conn: conn, cfg: cfg}
	conn.OnReadable(s.wake)
	return s
}

// Stats returns a copy of the server counters.
func (s *SimServer) Stats() SimServerStats { return s.stats }

// Engine returns the command engine.
func (s *SimServer) Engine() *kv.Engine { return s.engine }

// Stall freezes (true) or resumes (false) the server application's socket
// draining — the reader-stall fault: a stalled peer lets *unread* pile up
// until the advertised window closes, which is exactly the backpressure
// scenario the paper's unread-queue term measures. Resuming immediately
// drains whatever accumulated.
func (s *SimServer) Stall(v bool) {
	s.stalled = v
	if !v && s.conn.Readable() > 0 {
		s.wake()
	}
}

// wake is the epoll-readable event: start a read cycle unless one is
// already running (in which case the running cycle will re-check) or the
// application is stalled (Stall(false) will re-check).
func (s *SimServer) wake() {
	if s.busy || s.stalled {
		return
	}
	s.busy = true
	s.conn.Stack().AppCPU.Exec(s.cfg.ReadCosts.PerBatch, s, evRead, nil)
}

// The server's events, one chain per read cycle — charge the per-wakeup cost,
// drain the socket, parse, then serve the commands one by one: evRead, then
// evExec and evWrite per command. The app thread does one thing at a time, so the
// command in hand is pending[head] and the reply in hand is s.reply.
const (
	evRead  = iota // the wakeup's cost is paid: drain the socket and parse
	evExec         // a command's α and byte costs are paid: execute it
	evWrite        // the reply's send cost is paid: write it, take the next command
)

// HandleEvent runs one step of the read cycle (sim.Handler).
func (s *SimServer) HandleEvent(kind int, _ any) {
	switch kind {
	case evRead:
		s.readBatch()
	case evExec:
		reply := s.engine.Exec(s.pending[s.head])
		s.head++
		s.stats.Requests++
		// Send keeps the slice it is given, so "+OK" is one shared slice and
		// any other reply gets its own.
		s.reply = okWire
		if reply.Type != resp.SimpleString || string(reply.Str) != "OK" {
			s.reply = resp.AppendValue(nil, reply)
		}
		s.conn.Stack().AppCPU.Exec(s.cfg.WriteCosts.Item(len(s.reply)), s, evWrite, nil)
	case evWrite:
		s.send(s.reply)
		s.processNext()
	}
}

// readBatch drains the socket and parses the newly arrived commands.
func (s *SimServer) readBatch() {
	data := s.conn.Read(0)
	if len(data) == 0 {
		s.finishCycle()
		return
	}
	s.stats.BytesIn += uint64(len(data))
	s.parser.Feed(data)
	s.argv, s.pending, s.head = s.argv[:0], s.pending[:0], 0
	for {
		args, ok, err := s.parser.NextCommand(s.argv)
		if err != nil {
			// Corrupt stream: answer with an error and stop
			// reading — the mini-Redis equivalent of closing.
			s.send(resp.AppendValue(nil, resp.Err("ERR protocol error: %v", err)))
			s.conn.OnReadable(nil)
			s.busy = false
			return
		}
		if !ok {
			break
		}
		s.pending = append(s.pending, args[len(s.argv):])
		s.argv = args
	}
	s.stats.ReadBatches++
	s.stats.MaxBatch = max(s.stats.MaxBatch, len(s.pending))
	s.processNext()
}

// processNext charges the next pending command's α plus byte costs; evExec
// then handles it. When the queue drains it re-checks the socket.
func (s *SimServer) processNext() {
	if s.head == len(s.pending) {
		s.finishCycle()
		return
	}
	cost := s.cfg.ReadCosts.PerItem + time.Duration(float64(wireSize(s.pending[s.head]))*s.cfg.ReadCosts.PerByteNS)
	s.conn.Stack().AppCPU.Exec(cost, s, evExec, nil)
}

func (s *SimServer) send(wire []byte) {
	s.stats.BytesOut += uint64(len(wire))
	s.conn.Send(wire)
}

// finishCycle ends the current cycle and immediately starts another if data
// arrived while we were busy (level-triggered behaviour built from the
// edge-triggered OnReadable).
func (s *SimServer) finishCycle() {
	s.busy = false
	if s.conn.Readable() > 0 {
		s.wake()
	}
}

var okWire = resp.AppendValue(nil, resp.OK())

// wireSize approximates the wire size of a parsed command for cost
// accounting (header bytes are negligible next to 16 KiB values).
func wireSize(args [][]byte) int {
	n := 16
	for _, a := range args {
		n += len(a) + 16
	}
	return n
}
