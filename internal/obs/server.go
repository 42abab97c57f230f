package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"e2ebatch/internal/obs/span"
)

// queryN parses the ?n= record-count parameter, writing a 400 and
// returning ok=false on a malformed value.
func queryN(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return 0, false
		}
		return v, true
	}
	return def, true
}

// DebugServer serves the telemetry plane over HTTP behind one flag:
//
//	/metrics           Prometheus text exposition of the registry
//	/debug/decisions   last K decision records as JSONL (?n=K, default 64)
//	/debug/spans       last K spans per ring shard as JSONL (?n=K, default 256)
//	/debug/trace       the same spans in Chrome trace_event JSON (?n=K)
//	/debug/vars        flat JSON view of the registry
//	/debug/pprof/...   net/http/pprof profiles
//
// Construct with NewDebugServer, then Start(addr). The zero ring is
// allowed (decisions endpoint serves nothing); attach a span ring with
// SetSpans before Start or the span endpoints serve empty documents.
type DebugServer struct {
	reg   *Registry
	ring  *Ring
	spans *span.Ring[span.Span]
	srv   *http.Server
	ln    net.Listener
}

// NewDebugServer builds a server over reg and ring (ring may be nil).
func NewDebugServer(reg *Registry, ring *Ring) *DebugServer {
	return &DebugServer{reg: reg, ring: ring}
}

// SetSpans attaches the span ring the /debug/spans and /debug/trace
// endpoints export. Call before Start.
func (d *DebugServer) SetSpans(r *span.Ring[span.Span]) { d.spans = r }

// Handler returns the debug mux (exported for in-process tests).
func (d *DebugServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		d.reg.WriteVars(w)
	})
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, 64)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if d.ring != nil {
			d.ring.WriteJSONL(w, n)
		}
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, 256)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if d.spans != nil {
			d.spans.WriteJSONL(w, n)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		n, ok := queryN(w, r, 256)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if d.spans == nil {
			w.Write([]byte(`{"traceEvents":[]}`))
			return
		}
		span.WriteChromeTrace(w, d.spans, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (e.g. "127.0.0.1:9090"; ":0" picks a port) and
// serves in a background goroutine until Close. It returns the bound
// address so callers can print it.
func (d *DebugServer) Start(addr string) (net.Addr, error) {
	if d.srv != nil {
		return nil, fmt.Errorf("obs: debug server already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.ln = ln
	d.srv = &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go d.srv.Serve(ln)
	return ln.Addr(), nil
}

// Addr returns the bound address, or nil before Start.
func (d *DebugServer) Addr() net.Addr {
	if d.ln == nil {
		return nil
	}
	return d.ln.Addr()
}

// Close stops the server. It is safe to call before Start (no-op).
func (d *DebugServer) Close() error {
	if d.srv == nil {
		return nil
	}
	return d.srv.Close()
}
