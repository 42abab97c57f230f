package realtcp

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// rawIO reads and writes a connection's non-blocking socket with raw
// read(2) and write(2) calls inside syscall.RawConn.Read and Write. The
// netpoller still parks the goroutine on EAGAIN and calls back when the
// socket is ready; what the raw call skips is the runtime's entersyscall,
// which on a process just woken from idle also wakes the runtime's sysmon
// thread, and sysmon then polls every 20 µs until it sees every P idle
// again. A call on a non-blocking descriptor returns at once, so keeping the
// P through it costs nothing.
//
// Any other connection (net.Pipe, a wrapper without SyscallConn, a blocking
// descriptor) goes through the connection's own Read and Write. Errors keep
// net.Conn's shape: a peer close reads as a bare io.EOF, anything else is a
// *net.OpError, so errors.Is(err, net.ErrClosed) and the messages are the
// ones net.Conn gives.
//
// One rawIO serves one goroutine at a time: p, n and errno are the scratch
// of the call in flight, and the callbacks are built once, at construction.
type rawIO struct {
	conn net.Conn
	rc   syscall.RawConn // nil: the connection's own Read and Write

	p     []byte
	n     int
	errno syscall.Errno

	readFn, writeFn func(fd uintptr) bool
}

func newRawIO(conn net.Conn) *rawIO {
	r := &rawIO{conn: conn}
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return r
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return r
	}
	nonblocking := false
	if err := rc.Control(func(fd uintptr) {
		fl, _, e := syscall.RawSyscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
		nonblocking = e == 0 && fl&syscall.O_NONBLOCK != 0
	}); err != nil || !nonblocking {
		return r
	}
	r.rc = rc
	r.readFn, r.writeFn = r.read, r.write
	return r
}

// Read is net.Conn's Read over one raw read(2).
//
//e2e:hotpath
func (r *rawIO) Read(p []byte) (int, error) {
	if r.rc == nil {
		return r.conn.Read(p)
	}
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.errno = p, 0, 0
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, renamed(err, "read")
	}
	switch {
	case r.errno != 0:
		return 0, r.fail("read")
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// read is the RawConn callback: true once read(2) has an answer, false to
// wait for the socket to become readable.
func (r *rawIO) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		switch e {
		case 0:
			r.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = e
			return true
		}
	}
}

// Write is net.Conn's Write over raw write(2)s: it returns once all of p is
// written or the connection fails, continuing a partial write from where it
// stopped.
//
//e2e:hotpath
func (r *rawIO) Write(p []byte) (int, error) {
	if r.rc == nil {
		return r.conn.Write(p)
	}
	r.p, r.n, r.errno = p, 0, 0
	if err := r.rc.Write(r.writeFn); err != nil {
		return r.n, renamed(err, "write")
	}
	switch {
	case r.errno != 0:
		return r.n, r.fail("write")
	case r.n < len(p):
		return r.n, io.ErrUnexpectedEOF // write(2) took nothing and said nothing, as net.Conn reports it
	}
	return r.n, nil
}

// write is the RawConn callback: true once all of r.p is written or
// write(2) failed, false to wait for the socket to become writable.
func (r *rawIO) write(fd uintptr) bool {
	for r.n < len(r.p) {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&r.p[r.n])), uintptr(len(r.p)-r.n))
		switch e {
		case 0:
			if n == 0 {
				return true
			}
			r.n += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = e
			return true
		}
	}
	return true
}

// renamed gives a RawConn error (closed, deadline) the operation name
// net.Conn's Read or Write would have put on it.
func renamed(err error, op string) error {
	if oe, ok := err.(*net.OpError); ok {
		oe.Op = op
	}
	return err
}

// fail builds the error of a failed read(2) or write(2) as net.Conn does.
func (r *rawIO) fail(op string) error {
	//lint:ignore e2elint/escapes error path only: the connection is failing, and this is its last call
	return &net.OpError{Op: op, Net: r.conn.LocalAddr().Network(), Source: r.conn.LocalAddr(), Addr: r.conn.RemoteAddr(), Err: &os.SyscallError{Syscall: op, Err: r.errno}}
}
