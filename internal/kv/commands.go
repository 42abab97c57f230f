package kv

import (
	"bytes"
	"strconv"
	"strings"
	"time"

	"e2ebatch/internal/resp"
)

// Engine executes RESP commands against a store. It is transport-agnostic:
// the simulated server (SimServer) and the real-socket server (cmd/kvserver)
// both drive it.
type Engine struct {
	store *Store
}

// NewEngine returns an engine over st.
func NewEngine(st *Store) *Engine {
	if st == nil {
		panic("kv: nil store")
	}
	return &Engine{store: st}
}

// Store returns the underlying store.
func (e *Engine) Store() *Store { return e.store }

// Execute runs one client command held as a parsed value: an adapter over
// Exec for callers that have no argument views.
func (e *Engine) Execute(v resp.Value) resp.Value { return e.Exec(v.AppendArgs(nil)) }

// Replies without a variable part are built once and shared.
var (
	errNoCommand = resp.Err("ERR protocol: expected command array")
	errSyntax    = resp.Err("ERR syntax error")
	errExpire    = resp.Err("ERR invalid expire time in 'set' command")
)

// Exec runs one client command, given as its arguments with the name first
// (none at all: the request was no command), and returns the reply. It
// serves PING [msg], SET key value [EX s|PX ms], GET key, MGET key... and the
// handshake no-ops COMMAND, CONFIG, CLIENT and INFO; any other name is an
// unknown command. Malformed input yields RESP errors, never panics. The
// arguments are only read, and only until Exec returns: the store copies
// what it keeps. A reply, though, may be a view of the store's own buffer
// (see Store.Get), so encode it before the next command runs.
func (e *Engine) Exec(args [][]byte) resp.Value {
	if len(args) == 0 {
		return errNoCommand
	}
	// The name is upper-cased into a stack buffer and the switch compares
	// it there: no string is built. No command is longer than the buffer,
	// so a longer name stays empty and falls through to "unknown".
	var up [len("COMMAND")]byte
	name := up[:0]
	if len(args[0]) <= len(up) {
		name = up[:copy(up[:], args[0])]
	}
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			name[i] = c - 'a' + 'A'
		}
	}
	cmd, args := args[0], args[1:]

	switch string(name) {
	case "PING":
		if len(args) == 1 {
			return resp.Bulk(args[0])
		}
		if len(args) > 1 {
			return arity(string(name))
		}
		return resp.Pong()

	case "SET":
		if len(args) < 2 {
			return arity(string(name))
		}
		var ttl time.Duration
		for opts := args[2:]; len(opts) > 0; opts = opts[2:] {
			unit := time.Second
			switch {
			case bytes.EqualFold(opts[0], []byte("EX")):
			case bytes.EqualFold(opts[0], []byte("PX")):
				unit = time.Millisecond
			default:
				return errSyntax
			}
			if len(opts) < 2 {
				return errSyntax
			}
			n, err := strconv.ParseInt(string(opts[1]), 10, 64)
			if err != nil || n <= 0 {
				return errExpire
			}
			ttl = time.Duration(n) * unit
		}
		if !e.store.overwrite(args[0], args[1], ttl) {
			e.store.Set(string(args[0]), bytes.Clone(args[1]), ttl)
		}
		return resp.OK()

	case "GET":
		if len(args) != 1 {
			return arity(string(name))
		}
		return e.get(args[0])

	case "MGET":
		if len(args) == 0 {
			return arity(string(name))
		}
		out := make([]resp.Value, len(args))
		for i, k := range args {
			out[i] = e.get(k)
		}
		return resp.Value{Type: resp.Array, Array: out}

	case "COMMAND", "CONFIG", "CLIENT", "INFO":
		// Accepted no-ops so standard clients can handshake.
		return resp.OK()
	}
	return resp.Err("ERR unknown command '%s'", strings.ToLower(string(cmd)))
}

// get is GET's reply for key: a view of the store's buffer, or a null.
//
//e2e:hotpath
func (e *Engine) get(key []byte) resp.Value {
	if en := e.store.find(key); en != nil {
		return resp.Bulk(en.val)
	}
	return resp.NullBulk()
}

func arity(name string) resp.Value {
	return resp.Err("ERR wrong number of arguments for '%s' command", strings.ToLower(name))
}
