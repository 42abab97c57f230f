// Package hotpath is golden testdata for e2elint/hotpath: one annotated
// tick function exercising every forbidden construct, callees reached
// through the traversal, and the cold code the analyzer must leave alone.
package hotpath

import (
	"errors"
	"fmt"
)

type state struct {
	buf []int
	out [4]int
	n   int
}

var global int

func consume(v any) { _ = v }

//e2e:hotpath
func (s *state) Tick(now int64) int {
	defer s.unlock()                // want "defer in //e2e:hotpath function \\(\\*state\\).Tick"
	m := map[string]int{"tick": 1}  // want "map literal in //e2e:hotpath function \\(\\*state\\).Tick"
	xs := []int{1, 2}               // want "slice literal in"
	b := make([]byte, 8)            // want "make in"
	s.buf = append(s.buf, int(now)) // want "append in"
	consume(now)                    // want "interface boxing in //e2e:hotpath function \\(\\*state\\).Tick: int64 converts to any"
	consume(&s.out)                 // ok: pointer-shaped, stores in the interface word
	consume(nil)                    // ok: untyped nil
	_ = fmt.Sprintf("%d", now)      // want "call to fmt.Sprintf in"
	_ = errors.New("tick")          // want "call to errors.New in"
	_ = []byte("hdr")               // want "string/\\[\\]byte conversion in"
	_ = string(b)                   // want "string/\\[\\]byte conversion in"
	if now < 0 {
		panic(fmt.Sprintf("bad now %d", now)) // ok: a panicking tick is already dead
	}
	f := func() { s.n = len(xs) } // want "closure captures local variables in"
	f()
	g := func() int { return global } // ok: package state is shared, not captured
	_ = g()
	a := [4]int{} // ok: array literals live on the stack
	_ = a
	_ = m
	helper(s)
	return s.depth2()
}

func (s *state) unlock() {} // reached via defer; clean

// helper is unannotated but reached from Tick, so the same rules apply.
func helper(s *state) {
	s.buf = append(s.buf, 1) // want "append in helper, on the hot path of //e2e:hotpath \\(\\*state\\).Tick"
}

// depth2 shows method callees are traversed too.
func (s *state) depth2() int {
	_ = fmt.Sprint(s.n) // want "call to fmt.Sprint in \\(\\*state\\).depth2, on the hot path of"
	return s.n
}

// cold uses every forbidden construct but is reachable from no annotated
// function, so none of it is the analyzer's business.
func cold() string {
	defer func() {}()
	m := map[string]int{}
	bs := append([]byte(nil), "cold"...)
	consume(len(m))
	return fmt.Sprintf("%s", string(bs))
}

// Lookup uses the string(b) forms the compiler aliases instead of copying, and
// appends to the buffer its caller owns; only the map write builds a string.
//
//e2e:hotpath
func Lookup(m map[string]int, key []byte, dst []byte) []byte {
	switch string(key) { // ok: switch tag
	case "a":
		dst = append(dst, 'a') // ok: dst is a parameter, the caller owns its capacity
	}
	if n, ok := m[string(key)]; ok && string(key) != "b" { // ok: map read, comparison
		dst = append(dst, byte(n))
	}
	m[string(key)] = 1 // want "string/\\[\\]byte conversion in"
	local := dst[:0]
	local = append(local, 1) // want "append in //e2e:hotpath function Lookup"
	return append(dst, local...)
}

//e2e:hotpath
func Justified() {
	//lint:ignore e2elint/hotpath startup-only formatting, measured free
	_ = fmt.Sprintf("suppressed")
}
