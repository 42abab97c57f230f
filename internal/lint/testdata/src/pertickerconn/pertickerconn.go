// Package pertickerconn exercises the per-connection-timer rule: loaded by
// the golden test under the path e2ebatch/internal/realtcp (and again as
// e2ebatch/internal/shard), where the rule applies.
package pertickerconn

import "time"

type conn struct{ closed chan struct{} }

// handle has the per-connection handler shape the rule exists for: every
// runtime timer constructor is flagged regardless of goroutine context.
func handle(c *conn) {
	tk := time.NewTicker(time.Millisecond) // want "time\\.NewTicker in handle: per-connection timers belong on the shard wheel"
	defer tk.Stop()
	tm := time.NewTimer(time.Second) // want "time\\.NewTimer in handle"
	defer tm.Stop()
	ch := time.Tick(time.Second)           // want "time\\.Tick in handle"
	time.AfterFunc(time.Second, func() {}) // want "time\\.AfterFunc in handle"
	_ = ch
	<-c.closed
}

// serve spawns a goroutine per connection; blocking waits inside them are
// the pattern that topples at 50k connections.
func serve(cs []*conn) {
	for _, c := range cs {
		go func(c *conn) {
			time.Sleep(time.Millisecond) // want "time\\.Sleep on a goroutine spawned in serve"
			select {
			case <-c.closed:
			case <-time.After(time.Second): // want "time\\.After on a goroutine spawned in serve"
			}
		}(c)
		go readLoop(c)
	}
}

// readLoop is a go-statement target (spawned in serve), so its waits are
// per-connection waits.
func readLoop(c *conn) {
	time.Sleep(time.Millisecond) // want "time\\.Sleep in readLoop, which runs as a goroutine"
	<-c.closed
}

// pace runs on the caller's goroutine: waits are legitimate there (Fleet.Run's
// hold window).
func pace() {
	time.Sleep(time.Millisecond)
	<-time.After(time.Millisecond)
}

// driver is the one legitimate ticker shape — a per-shard loop driver —
// and shows the escape hatch with its mandatory justification.
func driver(stop chan struct{}) {
	//lint:ignore e2elint/pertickerconn one driver ticker per shard is the design: the wheel multiplexes every per-connection schedule onto it
	tk := time.NewTicker(time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
	}
}
