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

	commands uint64
	errors   uint64
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

// Commands returns how many commands were executed, and how many returned
// errors.
func (e *Engine) Commands() (total, errors uint64) { return e.commands, e.errors }

// Execute runs one client command held as a parsed value: an adapter over
// Exec for callers that have no argument views.
func (e *Engine) Execute(v resp.Value) resp.Value { return e.Exec(v.AppendArgs(nil)) }

// Exec runs one client command, given as its arguments with the name first
// (none at all: the request was no command), and returns the reply. Malformed
// input yields RESP errors, never panics. The arguments are only read, and
// only until Exec returns: the store copies what it keeps. A reply, though,
// may be a view of the store's own buffer (see Store.Get), so encode it
// before the next command runs.
func (e *Engine) Exec(args [][]byte) resp.Value {
	e.commands++
	reply := e.exec(args)
	if reply.IsError() {
		e.errors++
	}
	return reply
}

// Replies without a variable part are built once and shared.
var (
	errNoCommand = resp.Err("ERR protocol: expected command array")
	errWrongType = resp.Err("WRONGTYPE Operation against a key holding the wrong kind of value")
	errSyntax    = resp.Err("ERR syntax error")
	errNotInt    = resp.Err("ERR value is not an integer or out of range")
)

func (e *Engine) exec(args [][]byte) resp.Value {
	if len(args) == 0 {
		return errNoCommand
	}
	// The name is upper-cased into a stack buffer and the switch compares
	// it there: no string is built. No command is longer than the buffer,
	// so a longer name stays empty and falls through to "unknown".
	var up [12]byte
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

	case "ECHO":
		if len(args) != 1 {
			return arity(string(name))
		}
		return resp.Bulk(args[0])

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
				return resp.Err("ERR invalid expire time in 'set' command")
			}
			ttl = time.Duration(n) * unit
		}
		e.set(args[0], args[1], ttl)
		return resp.OK()

	case "GET":
		if len(args) != 1 {
			return arity(string(name))
		}
		return e.get(args[0])

	case "SETNX":
		if len(args) != 2 {
			return arity(string(name))
		}
		if e.store.find(args[0]) != nil {
			return resp.Int(0)
		}
		e.store.Set(string(args[0]), bytes.Clone(args[1]), 0)
		return resp.Int(1)

	case "GETSET":
		if len(args) != 2 {
			return arity(string(name))
		}
		// The old value is the reply, so the new one gets a buffer of its
		// own instead of overwriting it in place.
		old := e.get(args[0])
		if !old.IsError() {
			e.store.Set(string(args[0]), bytes.Clone(args[1]), 0)
		}
		return old

	case "GETDEL":
		if len(args) != 1 {
			return arity(string(name))
		}
		val := e.get(args[0])
		if !val.IsError() {
			e.store.Del(string(args[0]))
		}
		return val

	case "PERSIST":
		if len(args) != 1 {
			return arity(string(name))
		}
		return boolInt(e.store.Persist(string(args[0])))

	case "TYPE":
		if len(args) != 1 {
			return arity(string(name))
		}
		return resp.Value{Type: resp.SimpleString, Str: []byte(e.store.Kind(string(args[0])).String())}

	case "HSET":
		if bad := e.guard(name, args, len(args) >= 3 && len(args)%2 == 1, KindHash); bad.IsError() {
			return bad
		}
		var added int64
		for i := 1; i < len(args); i += 2 {
			if e.store.HSet(string(args[0]), string(args[i]), bytes.Clone(args[i+1])) {
				added++
			}
		}
		return resp.Int(added)

	case "HGET":
		if bad := e.guard(name, args, len(args) == 2, KindHash); bad.IsError() {
			return bad
		}
		return bulkIf(e.store.HGet(string(args[0]), string(args[1])))

	case "HDEL":
		if bad := e.guard(name, args, len(args) >= 2, KindHash); bad.IsError() {
			return bad
		}
		return resp.Int(e.store.HDel(string(args[0]), keysOf(args[1:])...))

	case "HLEN":
		if bad := e.guard(name, args, len(args) == 1, KindHash); bad.IsError() {
			return bad
		}
		return resp.Int(e.store.HLen(string(args[0])))

	case "HGETALL":
		if bad := e.guard(name, args, len(args) == 1, KindHash); bad.IsError() {
			return bad
		}
		pairs := e.store.HGetAll(string(args[0]))
		out := make([]resp.Value, 0, 2*len(pairs))
		for _, p := range pairs {
			out = append(out, resp.Bulk(p[0]), resp.Bulk(p[1]))
		}
		return resp.Value{Type: resp.Array, Array: out}

	case "LPUSH", "RPUSH":
		if bad := e.guard(name, args, len(args) >= 2, KindList); bad.IsError() {
			return bad
		}
		vals := make([][]byte, len(args)-1)
		for i, a := range args[1:] {
			vals[i] = bytes.Clone(a)
		}
		if name[0] == 'L' {
			return resp.Int(e.store.LPush(string(args[0]), vals...))
		}
		return resp.Int(e.store.RPush(string(args[0]), vals...))

	case "LPOP", "RPOP":
		if bad := e.guard(name, args, len(args) == 1, KindList); bad.IsError() {
			return bad
		}
		return bulkIf(e.store.pop(string(args[0]), name[0] == 'L'))

	case "LLEN":
		if bad := e.guard(name, args, len(args) == 1, KindList); bad.IsError() {
			return bad
		}
		return resp.Int(e.store.LLen(string(args[0])))

	case "LRANGE":
		if bad := e.guard(name, args, len(args) == 3, KindList); bad.IsError() {
			return bad
		}
		start, err1 := strconv.ParseInt(string(args[1]), 10, 64)
		stop, err2 := strconv.ParseInt(string(args[2]), 10, 64)
		if err1 != nil || err2 != nil {
			return errNotInt
		}
		return bulks(e.store.LRange(string(args[0]), start, stop))

	case "KEYS":
		if len(args) != 1 {
			return arity(string(name))
		}
		keys := e.store.Keys(string(args[0]))
		out := make([][]byte, len(keys))
		for i, k := range keys {
			out[i] = []byte(k)
		}
		return bulks(out)

	case "MSET":
		if len(args) == 0 || len(args)%2 != 0 {
			return arity(string(name))
		}
		for i := 0; i < len(args); i += 2 {
			e.set(args[i], args[i+1], 0)
		}
		return resp.OK()

	case "MGET":
		if len(args) == 0 {
			return arity(string(name))
		}
		out := make([]resp.Value, len(args))
		for i, k := range args {
			if out[i] = e.get(k); out[i].IsError() {
				out[i] = resp.NullBulk()
			}
		}
		return resp.Value{Type: resp.Array, Array: out}

	case "DEL":
		if len(args) == 0 {
			return arity(string(name))
		}
		return resp.Int(e.store.Del(keysOf(args)...))

	case "EXISTS":
		if len(args) == 0 {
			return arity(string(name))
		}
		return resp.Int(e.store.Exists(keysOf(args)...))

	case "INCR", "DECR", "INCRBY", "DECRBY":
		by := len(name) == len("INCRBY")
		if bad := e.guard(name, args, len(args) == 1 && !by || len(args) == 2 && by, KindString); bad.IsError() {
			return bad
		}
		delta := int64(1)
		if by {
			n, err := strconv.ParseInt(string(args[1]), 10, 64)
			if err != nil {
				return errNotInt
			}
			delta = n
		}
		if name[0] == 'D' {
			delta = -delta
		}
		nv, ok := e.store.IncrBy(string(args[0]), delta)
		if !ok {
			return errNotInt
		}
		return resp.Int(nv)

	case "APPEND":
		if bad := e.guard(name, args, len(args) == 2, KindString); bad.IsError() {
			return bad
		}
		return resp.Int(e.store.Append(string(args[0]), args[1]))

	case "STRLEN":
		if bad := e.guard(name, args, len(args) == 1, KindString); bad.IsError() {
			return bad
		}
		return resp.Int(e.store.Strlen(string(args[0])))

	case "EXPIRE", "PEXPIRE":
		if len(args) != 2 {
			return arity(string(name))
		}
		n, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil {
			return errNotInt
		}
		unit := time.Second
		if name[0] == 'P' {
			unit = time.Millisecond
		}
		return boolInt(e.store.Expire(string(args[0]), time.Duration(n)*unit))

	case "TTL", "PTTL":
		if len(args) != 1 {
			return arity(string(name))
		}
		ttl, ok := e.store.TTL(string(args[0]))
		if !ok {
			return resp.Int(-2)
		}
		if ttl < 0 {
			return resp.Int(-1)
		}
		if name[0] == 'T' {
			return resp.Int(int64((ttl + time.Second - 1) / time.Second))
		}
		return resp.Int(int64(ttl / time.Millisecond))

	case "DBSIZE":
		if len(args) != 0 {
			return arity(string(name))
		}
		return resp.Int(e.store.DBSize())

	case "FLUSHALL":
		e.store.FlushAll()
		return resp.OK()

	case "COMMAND", "CONFIG", "CLIENT", "INFO":
		// Accepted no-ops so standard clients can handshake.
		return resp.OK()
	}
	return resp.Err("ERR unknown command '%s'", strings.ToLower(string(cmd)))
}

// get is GET's reply for key: a view of the store's buffer, a null, or
// WRONGTYPE.
//
//e2e:hotpath
func (e *Engine) get(key []byte) resp.Value {
	en := e.store.find(key)
	if en == nil {
		return resp.NullBulk()
	}
	if en.kind != KindString {
		return errWrongType
	}
	return resp.Bulk(en.val)
}

// set is SET's work, and the one copy of the value it makes: into the buffer
// key already owns when that fits, into a new one when not.
func (e *Engine) set(key, val []byte, ttl time.Duration) {
	if !e.store.overwrite(key, val, ttl) {
		e.store.Set(string(key), bytes.Clone(val), ttl)
	}
}

// guard opens the commands on one kind of value: the arity error unless
// arityOK, WRONGTYPE when the key, args[0], holds a value of another kind.
func (e *Engine) guard(name []byte, args [][]byte, arityOK bool, kind Kind) (bad resp.Value) {
	if !arityOK {
		return arity(string(name))
	}
	if en := e.store.find(args[0]); en != nil && en.kind != kind {
		return errWrongType
	}
	return bad
}

func arity(name string) resp.Value {
	return resp.Err("ERR wrong number of arguments for '%s' command", strings.ToLower(name))
}

func boolInt(b bool) resp.Value {
	if b {
		return resp.Int(1)
	}
	return resp.Int(0)
}

func bulkIf(v []byte, ok bool) resp.Value {
	if !ok {
		return resp.NullBulk()
	}
	return resp.Bulk(v)
}

func bulks(vals [][]byte) resp.Value {
	out := make([]resp.Value, len(vals))
	for i, v := range vals {
		out[i] = resp.Bulk(v)
	}
	return resp.Value{Type: resp.Array, Array: out}
}

func keysOf(args [][]byte) []string {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = string(a)
	}
	return keys
}
