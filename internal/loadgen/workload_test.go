package loadgen

import (
	"bytes"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/resp"
)

// TestMixedWorkloadPermilleBoundaries pins the degenerate mixes: 1000‰ is
// all SETs, 0‰ all GETs, and the block arithmetic never leaks the other
// kind in.
func TestMixedWorkloadPermilleBoundaries(t *testing.T) {
	allSets := MixedWorkload(16, 64, 1000)
	allGets := MixedWorkload(16, 64, 0)
	for i := uint64(0); i < 2500; i++ {
		if _, kind := allSets(i); kind != KindSet {
			t.Fatalf("setPermille=1000 produced kind %d at %d", kind, i)
		}
		if _, kind := allGets(i); kind != KindGet {
			t.Fatalf("setPermille=0 produced kind %d at %d", kind, i)
		}
	}
	for _, bad := range []int{-1, 1001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("setPermille=%d accepted", bad)
				}
			}()
			MixedWorkload(16, 64, bad)
		}()
	}
}

// TestSetWorkloadZeroLengthValue: a zero-byte value is a legal RESP bulk
// string ("$0\r\n\r\n") and must survive a full run, not just encoding.
func TestSetWorkloadZeroLengthValue(t *testing.T) {
	mk := SetWorkload(16, 0)
	wire, kind := mk(0)
	if kind != KindSet {
		t.Fatalf("kind = %d", kind)
	}
	if !bytes.Contains(wire, []byte("$0\r\n\r\n")) {
		t.Fatalf("empty value not encoded as $0: %q", wire)
	}
	_, _, mkGen, srv := rig(t, false)
	res := mkGen(DefaultConfig(5000, 50*time.Millisecond), mk).Run()
	if res.Completed == 0 || res.Dropped != 0 {
		t.Fatalf("zero-length values broke the run: %+v", res)
	}
	if srv.Stats().Requests < res.Completed {
		t.Fatalf("server saw %d < completed %d", srv.Stats().Requests, res.Completed)
	}
}

// TestKeyRotationWraps: the key set is 16 wide, so request i and i+16 hit
// the same key (byte-identical wire) while neighbors differ — the wrap that
// keeps the store bounded.
func TestKeyRotationWraps(t *testing.T) {
	mk := SetWorkload(16, 32)
	for i := uint64(0); i < 40; i++ {
		a, _ := mk(i)
		b, _ := mk(i + 16)
		if !bytes.Equal(a, b) {
			t.Fatalf("request %d and %d differ despite key wrap", i, i+16)
		}
		c, _ := mk(i + 1)
		if bytes.Equal(a, c) {
			t.Fatalf("request %d and %d identical: rotation stuck", i, i+1)
		}
	}
	keys := Keys(8, 16)
	if len(keys) != 16 {
		t.Fatalf("Keys returned %d", len(keys))
	}
	for i, k := range keys {
		if len(k) != 8 {
			t.Fatalf("key %d has size %d", i, len(k))
		}
		for j := i + 1; j < len(keys); j++ {
			if bytes.Equal(k, keys[j]) {
				t.Fatalf("keys %d and %d collide", i, j)
			}
		}
	}
}

// TestRateFnModulatesArrivals: a nil RateFn and a constant ×1 RateFn drive
// the identical RNG sequence (so the pre-RateFn goldens cannot drift), a ×2
// shape doubles the issue count, and a burst shape lands near its numeric
// mean.
func TestRateFnModulatesArrivals(t *testing.T) {
	run := func(fn func(time.Duration) float64) *Result {
		_, _, mkGen, _ := rig(t, false)
		cfg := DefaultConfig(20000, 100*time.Millisecond)
		cfg.Arrival = Uniform
		cfg.RateFn = fn
		return mkGen(cfg, PingWorkload()).Run()
	}
	base := run(nil)
	one := run(func(time.Duration) float64 { return 1 })
	if base.Issued != one.Issued {
		t.Fatalf("constant x1 RateFn changed issue count: %d vs %d", base.Issued, one.Issued)
	}
	double := run(func(time.Duration) float64 { return 2 })
	if double.Issued < 2*base.Issued-40 || double.Issued > 2*base.Issued+40 {
		t.Fatalf("x2 RateFn issued %d, want ~%d", double.Issued, 2*base.Issued)
	}
	shape := BurstShape(20*time.Millisecond, 5*time.Millisecond, 3, 0.35)
	burst := run(shape)
	want := float64(base.Issued) * MeanShape(shape, 100*time.Millisecond)
	if float64(burst.Issued) < 0.85*want || float64(burst.Issued) > 1.15*want {
		t.Fatalf("burst shape issued %d, want ~%.0f", burst.Issued, want)
	}
	// The floor clamps a pathological shape instead of freezing the run.
	frozen := run(func(time.Duration) float64 { return 0 })
	if frozen.Issued > 25 {
		t.Fatalf("zero-rate shape still issued %d", frozen.Issued)
	}
}

// TestServerServesEveryWorkload pins the traffic the server assumes: every
// request any workload sends is a command the kv engine serves. The requests
// go through the servers' own path (NextCommand, then Exec) against a store
// preloaded the way figures.Run does, and no reply may be an error, so a
// workload that starts sending a command the server does not serve fails
// here rather than in a benchmark run.
func TestServerServesEveryWorkload(t *testing.T) {
	const keySize, valSize, n = 16, 16 << 10, 2000
	makers := map[string]RequestMaker{
		"set":   SetWorkload(keySize, valSize),
		"mixed": MixedWorkload(keySize, valSize, 500),
		"ping":  PingWorkload(),
	}
	preload := map[string]bool{"mixed": true}
	for _, w := range Zoo(keySize, valSize) {
		makers["zoo/"+w.Name], preload["zoo/"+w.Name] = w.NewMaker(1), w.PreloadKeys
	}
	for name, mk := range makers {
		eng := kv.NewEngine(kv.NewStore(func() time.Duration { return 0 }))
		if preload[name] {
			for _, k := range Keys(keySize, 16) {
				eng.Store().Set(string(k), make([]byte, valSize), 0)
			}
		}
		var p resp.Parser
		var args [][]byte
		commands := 0
		for i := uint64(0); i < n; i++ {
			wire, _ := mk(i)
			p.Feed(wire)
			for {
				var ok bool
				var err error
				if args, ok, err = p.NextCommand(args[:0]); err != nil {
					t.Fatalf("%s: request %d: %v", name, i, err)
				} else if !ok {
					break
				}
				commands++
				if reply := eng.Exec(args); reply.IsError() {
					t.Fatalf("%s: request %d (%.40q) = %v", name, i, args, reply)
				}
			}
		}
		if commands < n || p.Buffered() != 0 {
			t.Fatalf("%s: %d commands from %d requests, %d bytes left over", name, commands, n, p.Buffered())
		}
	}
}
