// Package resp implements the RESP2 wire protocol spoken by Redis — the
// request/response framing for the mini-Redis substrate used in the paper's
// evaluation workloads (§4). The parser is incremental and
// transport-agnostic: feed it arbitrary byte chunks (as delivered by the
// simulated or real TCP stream) and pop complete values.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Type tags a RESP value with its wire marker byte.
type Type byte

// RESP2 value types.
const (
	SimpleString Type = '+'
	ErrorString  Type = '-'
	Integer      Type = ':'
	BulkString   Type = '$'
	Array        Type = '*'
)

// Value is one RESP value. For BulkString and Array, Null marks the RESP
// null ($-1 / *-1).
type Value struct {
	Type  Type
	Str   []byte  // SimpleString, ErrorString, BulkString payload
	Int   int64   // Integer payload
	Array []Value // Array elements
	Null  bool
}

// Convenience constructors.

var okBytes, pongBytes = []byte("OK"), []byte("PONG")

// OK is the "+OK" reply. Its bytes are shared: do not modify them.
func OK() Value { return Value{Type: SimpleString, Str: okBytes} }

// Pong is the "+PONG" reply, shared like OK.
func Pong() Value { return Value{Type: SimpleString, Str: pongBytes} }

// Err builds an error reply.
func Err(format string, args ...any) Value {
	return Value{Type: ErrorString, Str: []byte(fmt.Sprintf(format, args...))}
}

// Int builds an integer reply.
func Int(n int64) Value { return Value{Type: Integer, Int: n} }

// Bulk builds a bulk-string reply.
func Bulk(b []byte) Value { return Value{Type: BulkString, Str: b} }

// NullBulk is the null bulk string ($-1), Redis's "no such key".
func NullBulk() Value { return Value{Type: BulkString, Null: true} }

// IsError reports whether v is an error reply.
func (v Value) IsError() bool { return v.Type == ErrorString }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Type {
	case SimpleString:
		return "+" + string(v.Str)
	case ErrorString:
		return "-" + string(v.Str)
	case Integer:
		return ":" + strconv.FormatInt(v.Int, 10)
	case BulkString:
		if v.Null {
			return "$<null>"
		}
		if len(v.Str) > 32 {
			return fmt.Sprintf("$<%d bytes>", len(v.Str))
		}
		return "$" + string(v.Str)
	case Array:
		if v.Null {
			return "*<null>"
		}
		return fmt.Sprintf("*<%d elems>", len(v.Array))
	}
	return "?"
}

var crlf = []byte("\r\n")

// AppendValue appends the wire encoding of v to buf.
//
//e2e:hotpath
func AppendValue(buf []byte, v Value) []byte {
	switch v.Type {
	case SimpleString, ErrorString:
		buf = append(buf, byte(v.Type))
		buf = append(buf, v.Str...)
		return append(buf, crlf...)
	case Integer:
		buf = append(buf, byte(v.Type))
		buf = strconv.AppendInt(buf, v.Int, 10)
		return append(buf, crlf...)
	case BulkString:
		if v.Null {
			return append(buf, "$-1\r\n"...)
		}
		buf = append(buf, '$')
		buf = strconv.AppendInt(buf, int64(len(v.Str)), 10)
		buf = append(buf, crlf...)
		buf = append(buf, v.Str...)
		return append(buf, crlf...)
	case Array:
		if v.Null {
			return append(buf, "*-1\r\n"...)
		}
		buf = append(buf, '*')
		buf = strconv.AppendInt(buf, int64(len(v.Array)), 10)
		buf = append(buf, crlf...)
		for _, e := range v.Array {
			buf = AppendValue(buf, e)
		}
		return buf
	}
	panic(fmt.Sprintf("resp: unknown type %q", byte(v.Type)))
}

// AppendCommand appends a client command — an array of bulk strings — to
// buf. This is how Redis clients encode "SET key value".
func AppendCommand(buf []byte, args ...[]byte) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(args)), 10)
	buf = append(buf, crlf...)
	for _, a := range args {
		buf = AppendValue(buf, Bulk(a))
	}
	return buf
}

// Command is shorthand for AppendCommand with string arguments.
func Command(args ...string) []byte {
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	return AppendCommand(nil, bs...)
}

// ErrProtocol is wrapped by all parse errors.
var ErrProtocol = errors.New("resp: protocol error")

// Parse errors are built once: the decoder is on the request path.
var (
	errHeader = fmt.Errorf("%w: bad length or integer line", ErrProtocol)
	errBulk   = fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
	errDepth  = fmt.Errorf("%w: arrays nested too deep", ErrProtocol)
	errInline = fmt.Errorf("%w: empty or unterminated inline command", ErrProtocol)
)

// Bounds on what a malformed or malicious peer can make the parser hold.
const (
	maxLength = 512 << 20 // declared bulk and array lengths
	// A sign and 19 digits fit a '$', '*' or ':' line with room to spare, so
	// a longer one without CRLF is garbage, not a header still arriving.
	maxHeader       = 32
	maxDepth        = 32       // array nesting: parseValue recurses per level
	maxInlineLength = 64 << 10 // unframed inline lines, as in Redis
)

// Parser incrementally decodes RESP values from a byte stream. The zero
// value is ready to use.
type Parser struct {
	buf []byte
	off int
}

// Feed appends stream bytes to the parse buffer.
func (p *Parser) Feed(data []byte) {
	p.Commit(copy(p.Space(len(data)), data))
}

// Space returns the free tail of the parse buffer, at least n bytes long,
// for a reader to fill in place; Commit then marks what it read as fed. Like
// Feed, Space may move the buffered bytes and so ends the life of every view
// NextCommand returned.
func (p *Parser) Space(n int) []byte {
	if p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	} else if cap(p.buf)-len(p.buf) < n {
		// Compact only when the tail is short: what is left is part of one
		// request, not worth moving after every read.
		p.buf, p.off = p.buf[:copy(p.buf, p.buf[p.off:])], 0
	}
	if cap(p.buf)-len(p.buf) < n {
		p.buf = append(p.buf, make([]byte, n)...)[:len(p.buf)]
	}
	return p.buf[len(p.buf):cap(p.buf)]
}

// Commit marks the first n bytes of the slice Space returned as fed.
func (p *Parser) Commit(n int) { p.buf = p.buf[:len(p.buf)+n] }

// Buffered returns the number of unconsumed bytes.
func (p *Parser) Buffered() int { return len(p.buf) - p.off }

// Next returns the next complete value. ok is false when more bytes are
// needed. A non-nil error means the stream is corrupt; the parser is then
// unusable for further input.
func (p *Parser) Next() (v Value, ok bool, err error) {
	v, n, err := parseValue(p.buf[p.off:], 0)
	if err != nil || n == 0 {
		return Value{}, false, err
	}
	p.off += n
	return v, true, nil
}

// NextCommand decodes the next request and appends its arguments to args
// (pass args[:0] to reuse one slice). ok and err are Next's. The arguments of
// an array of bulk strings — what every client sends — are views of the
// parse buffer, valid until the parser is next fed (Feed or Space). Anything
// else goes through Next: an inline command's arguments are copies, and a
// value that is no command at all (a null, a nested or non-bulk element, an
// empty array) is consumed and reported as ok with no argument appended.
func (p *Parser) NextCommand(args [][]byte) ([][]byte, bool, error) {
	args, n, err := commandViews(p.buf[p.off:], args)
	if n < 0 {
		v, ok, err := p.Next()
		return v.AppendArgs(args), ok, err
	}
	p.off += n
	return args, n > 0, err
}

// Skip consumes the next complete value without building it, for a reader
// that only counts replies. ok and err are Next's; strLen is len(v.Str) of
// the value Next would have returned: the length of a top-level simple, error
// or bulk string, 0 for anything else.
func (p *Parser) Skip() (strLen int, ok bool, err error) {
	strLen, n, err := skipValue(p.buf[p.off:], 0)
	if n < 0 {
		v, ok, err := p.Next()
		return len(v.Str), ok, err
	}
	p.off += n
	return strLen, n > 0, err
}

// AppendArgs appends the arguments of the command v holds — an array of
// non-null bulk strings — to args, and nothing if v is anything else.
func (v Value) AppendArgs(args [][]byte) [][]byte {
	keep := len(args)
	for _, a := range v.Array {
		if v.Type != Array || a.Type != BulkString || a.Null {
			return args[:keep]
		}
		args = append(args, a.Str)
	}
	return args
}

// commandViews decodes one array of non-null bulk strings at the head of b,
// appending a view of each to args. n is the bytes it spans, 0 when it is
// still incomplete and -1 when b holds anything else; args comes back
// unextended in both cases and on error.
//
//e2e:hotpath
func commandViews(b []byte, args [][]byte) (_ [][]byte, n int, err error) {
	if len(b) == 0 {
		return args, 0, nil
	}
	if b[0] != byte(Array) {
		return args, -1, nil
	}
	count, off, err := header(b)
	if err != nil || off == 0 {
		return args, 0, err
	}
	if count < 1 {
		return args, -1, nil
	}
	keep := len(args)
	for ; count > 0; count-- {
		if off == len(b) {
			return args[:keep], 0, nil
		}
		if b[off] != byte(BulkString) {
			return args[:keep], -1, nil
		}
		str, null, used, err := bulk(b[off:])
		if null {
			return args[:keep], -1, nil
		}
		if err != nil || used == 0 {
			return args[:keep], 0, err
		}
		args = append(args, str)
		off += used
	}
	return args, off, nil
}

// parseValue attempts to decode one value from b, returning the bytes
// consumed (0 when incomplete).
func parseValue(b []byte, depth int) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, nil
	}
	t := Type(b[0])
	switch t {
	case SimpleString, ErrorString:
		line, n := takeLine(b[1:])
		if n == 0 {
			return Value{}, 0, nil
		}
		return Value{Type: t, Str: append([]byte(nil), line...)}, 1 + n, nil
	case Integer:
		i, n, err := header(b)
		return Value{Type: t, Int: i}, n, err
	case BulkString:
		str, null, n, err := bulk(b)
		if !null && n > 0 {
			str = append([]byte(nil), str...)
		}
		return Value{Type: t, Str: str, Null: null}, n, err
	case Array:
		count, off, err := header(b)
		if err != nil || off == 0 || count < 0 {
			return Value{Type: t, Null: count < 0}, off, err
		}
		if depth == maxDepth {
			return Value{}, 0, errDepth
		}
		// No element is shorter than 3 bytes ("+\r\n"), so the header alone
		// reserves no more than the buffered bytes could still hold.
		elems := make([]Value, 0, min(count, int64(len(b)-off)/3))
		for ; count > 0; count-- {
			e, n, err := parseValue(b[off:], depth+1)
			if err != nil || n == 0 {
				return Value{}, 0, err
			}
			elems = append(elems, e)
			off += n
		}
		return Value{Type: t, Array: elems}, off, nil
	}
	// Inline command (the Redis telnet convenience): a bare line split on
	// whitespace becomes an array of bulk strings, e.g. "PING\r\n" — an
	// array like any other to the nesting bound.
	if depth == maxDepth {
		return Value{}, 0, errDepth
	}
	line, n := takeLine(b)
	if n == 0 && len(b) <= maxInlineLength {
		return Value{}, 0, nil
	}
	// An empty line would be a value of zero bytes' worth, which the callers'
	// loops cannot express — so treat it as protocol noise.
	var arr []Value
	for _, f := range bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' }) {
		arr = append(arr, Bulk(append([]byte(nil), f...)))
	}
	if len(arr) == 0 {
		return Value{}, 0, errInline
	}
	return Value{Type: Array, Array: arr}, n, nil
}

// skipValue is parseValue for a caller that needs only the span: the same
// bytes consumed (0 when incomplete) and the same errors, nothing built. n is
// -1 when the value is or holds an inline command, which no server sends and
// parseValue is left to split.
//
//e2e:hotpath
func skipValue(b []byte, depth int) (strLen, n int, err error) {
	if len(b) == 0 {
		return 0, 0, nil
	}
	switch Type(b[0]) {
	case SimpleString, ErrorString:
		line, n := takeLine(b[1:])
		if n == 0 {
			return 0, 0, nil
		}
		return len(line), 1 + n, nil
	case Integer:
		_, n, err := header(b)
		return 0, n, err
	case BulkString:
		str, _, n, err := bulk(b)
		return len(str), n, err
	case Array:
		count, off, err := header(b)
		if err != nil || off == 0 || count < 0 {
			return 0, off, err
		}
		if depth == maxDepth {
			return 0, 0, errDepth
		}
		for ; count > 0; count-- {
			_, n, err := skipValue(b[off:], depth+1)
			if err != nil || n <= 0 {
				return 0, n, err
			}
			off += n
		}
		return 0, off, nil
	}
	return 0, -1, nil
}

// header decodes the integer line after the type byte b[0], bounded for
// lengths ('$', '*') to -1..maxLength. n is the bytes it spans, 0 when the
// line is still incomplete.
func header(b []byte) (v int64, n int, err error) {
	line, n := takeLine(b[1:min(len(b), 1+maxHeader)])
	if n == 0 {
		if len(b) > maxHeader {
			err = errHeader
		}
		return 0, 0, err
	}
	neg := len(line) > 0 && line[0] == '-'
	if neg || (len(line) > 0 && line[0] == '+') {
		line = line[1:]
	}
	var u uint64
	ok := len(line) > 0 && len(line) <= 19 // 19 digits cannot wrap a uint64
	for _, c := range line {
		ok = ok && c-'0' <= 9
		u = u*10 + uint64(c-'0')
	}
	if v = int64(u); neg {
		v = -v
	}
	if !ok || u > math.MaxInt64 || b[0] != byte(Integer) && (v < -1 || v > maxLength) {
		return 0, 0, errHeader
	}
	return v, 1 + n, nil
}

// bulk decodes the bulk string at the head of b ('$') as a view of b. n is
// the bytes it spans, 0 when it is still incomplete.
func bulk(b []byte) (str []byte, null bool, n int, err error) {
	length, head, err := header(b)
	if err != nil || head == 0 || length < 0 {
		return nil, length < 0, head, err
	}
	end := head + int(length)
	if len(b) < end+2 {
		return nil, false, 0, nil
	}
	if b[end] != '\r' || b[end+1] != '\n' {
		return nil, false, 0, errBulk
	}
	return b[head:end:end], false, end + 2, nil
}

// takeLine returns the bytes before the next CRLF and the total bytes
// consumed including the CRLF (0 when no full line is buffered).
func takeLine(b []byte) ([]byte, int) {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' {
			return b[:i], i + 2
		}
	}
	return nil, 0
}
