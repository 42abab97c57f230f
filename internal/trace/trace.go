// Package trace reproduces the paper's prototype measurement workflow
// (§3.4): queue-state counters are exported ethtool-style at a fixed
// sampling interval from both communicating machines, and end-to-end
// estimates are derived by offline analysis of the collected log — no
// online peer exchange required.
//
// A Collector samples both endpoints of a simulated connection in every
// unit mode; Delays pairs two records of a log into the per-queue averages
// the core estimate is computed from. Logs serialize to a plain text format
// so the offline analysis can genuinely be run out of process (see
// cmd/e2efig -trace).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// Record is one sampling instant: both sides' three queues in every unit.
type Record struct {
	At     sim.Time
	Client [tcpsim.NumUnits]core.Queues
	Server [tcpsim.NumUnits]core.Queues
}

// Log is an in-order series of records.
type Log struct {
	Records []Record
}

// Collector samples two connection endpoints on a ticker — the ethtool
// poller of the paper's prototype.
type Collector struct {
	log    Log
	ticker *sim.Ticker
}

// NewCollector starts sampling client and server every interval.
func NewCollector(s *sim.Sim, client, server *tcpsim.Conn, interval time.Duration) *Collector {
	c := &Collector{}
	c.ticker = sim.NewTicker(s, interval, func(now sim.Time) {
		var r Record
		r.At = now
		for u := 0; u < tcpsim.NumUnits; u++ {
			ua, ur, ad := client.Snapshots(tcpsim.Unit(u))
			r.Client[u] = core.Queues{Unacked: ua, Unread: ur, AckDelay: ad}
			ua, ur, ad = server.Snapshots(tcpsim.Unit(u))
			r.Server[u] = core.Queues{Unacked: ua, Unread: ur, AckDelay: ad}
		}
		c.log.Records = append(c.log.Records, r)
	})
	return c
}

// Stop ceases sampling.
func (c *Collector) Stop() { c.ticker.Stop() }

// Log returns the collected log.
func (c *Collector) Log() *Log { return &c.log }

// Delays analyzes one interval of the log in the given unit: from the first
// record sampled at or after from (at latest the second-to-last) to the last
// record. It returns both sides' per-queue averages over it, the client as
// "local" (its unacked queue carries the requests); ok is false when the log
// holds fewer than two records.
func (l *Log) Delays(from time.Duration, unit tcpsim.Unit) (local, remote core.Delays, ok bool) {
	recs := l.Records
	if len(recs) < 2 {
		return core.Delays{}, core.Delays{}, false
	}
	i := 0
	for i < len(recs)-1 && recs[i].At.Duration() < from {
		i++
	}
	first, last := recs[i], recs[len(recs)-1]
	return core.DelaysBetween(first.Client[unit], last.Client[unit]),
		core.DelaysBetween(first.Server[unit], last.Server[unit]), true
}

// Overall analyzes the whole log as a single interval (first record to
// last) — the steady-state estimate used for the Figure 4 curves.
func (l *Log) Overall(unit tcpsim.Unit) core.Estimate {
	local, remote, ok := l.Delays(0, unit)
	if !ok {
		return core.Estimate{}
	}
	return core.EstimateE2E(local, remote)
}

// WriteTo serializes the log in a line-oriented text format:
//
//	rec <at>
//	<side> <unit> <queue> <time> <total> <integral>
//	...
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	for _, r := range l.Records {
		if err := count(fmt.Fprintf(bw, "rec %d\n", int64(r.At))); err != nil {
			return n, err
		}
		for u := 0; u < tcpsim.NumUnits; u++ {
			sides := [2]struct {
				name string
				qs   core.Queues
			}{{"client", r.Client[u]}, {"server", r.Server[u]}}
			for _, side := range sides {
				queues := [3]struct {
					name string
					s    qstate.Snapshot
				}{
					{"unacked", side.qs.Unacked},
					{"unread", side.qs.Unread},
					{"ackdelay", side.qs.AckDelay},
				}
				for _, q := range queues {
					if err := count(fmt.Fprintf(bw, "%s %d %s %d %d %d\n",
						side.name, u, q.name, int64(q.s.Time), q.s.Total, q.s.Integral)); err != nil {
						return n, err
					}
				}
			}
		}
	}
	return n, bw.Flush()
}

// ReadLog parses a log produced by WriteTo.
func ReadLog(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var log Log
	var cur *Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		var at int64
		if n, _ := fmt.Sscanf(text, "rec %d", &at); n == 1 {
			log.Records = append(log.Records, Record{At: sim.Time(at)})
			cur = &log.Records[len(log.Records)-1]
			continue
		}
		var side, name string
		var unit int
		var ts, total, integral int64
		if n, err := fmt.Sscanf(text, "%s %d %s %d %d %d", &side, &unit, &name, &ts, &total, &integral); n != 6 || err != nil {
			return nil, fmt.Errorf("trace: line %d: malformed %q", line, text)
		}
		if cur == nil {
			return nil, fmt.Errorf("trace: line %d: sample before any rec header", line)
		}
		if unit < 0 || unit >= tcpsim.NumUnits {
			return nil, fmt.Errorf("trace: line %d: bad unit %d", line, unit)
		}
		var qs *core.Queues
		switch side {
		case "client":
			qs = &cur.Client[unit]
		case "server":
			qs = &cur.Server[unit]
		default:
			return nil, fmt.Errorf("trace: line %d: bad side %q", line, side)
		}
		snap := qstate.Snapshot{Time: qstate.Time(ts), Total: total, Integral: integral}
		switch name {
		case "unacked":
			qs.Unacked = snap
		case "unread":
			qs.Unread = snap
		case "ackdelay":
			qs.AckDelay = snap
		default:
			return nil, fmt.Errorf("trace: line %d: bad queue %q", line, name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &log, nil
}
