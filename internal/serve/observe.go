package serve

import (
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ealb/internal/trace"
)

// maxTraceEventsPerCell bounds how many decision events one cell's
// trace buffers — the live tail and the store stream alike. Unlike
// interval stats, trace events are never folded into the recorded
// result; a dense 10k-server cell can emit thousands of events per
// interval, and an unbounded buffer would let one traced run hold the
// heap (or the store) hostage. Events past the cap are counted but
// dropped from the stream.
const maxTraceEventsPerCell = 1 << 17

// traceArenaSize is the chunk size a tailTracer carves its encoded
// event lines from: one allocation per few hundred events instead of
// one per event.
const traceArenaSize = 64 << 10

// tailTracer is the per-cell tracer of a traced run: each decision event
// is encoded once, by trace.AppendEvent, and the line feeds both the
// run's trace tail for live NDJSON streaming and the run store (where
// finished runs stream from, so the live buffers can be released at
// terminal status); phase timings feed the server-wide phase histograms
// exported on /metrics. It is driven from engine worker goroutines — a
// farm cell's clusters concurrently — so events are serialized by mu,
// which also keeps the tail and the store in the same order.
type tailTracer struct {
	srv   *Server
	tail  *tail
	runID string
	cell  int

	mu sync.Mutex
	//ealb:guarded-by(mu)
	n int
	// arena holds the cell's encoded lines; each line is a capacity-
	// capped slice of it, so the tail can keep it without copying.
	//ealb:guarded-by(mu)
	arena []byte
}

func (tt *tailTracer) Event(e trace.Event) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.n++; tt.n > maxTraceEventsPerCell {
		tt.srv.traceDropped.Add(1)
		return
	}
	if cap(tt.arena)-len(tt.arena) < 512 {
		tt.arena = make([]byte, 0, traceArenaSize)
	}
	start := len(tt.arena)
	b, err := trace.AppendEvent(tt.arena, e)
	if err != nil {
		return // unencodable (NaN/Inf): absent from the tail and the store alike
	}
	tt.arena = b
	line := b[start:len(b):len(b)]
	tt.tail.observe(tt.cell, line)
	if err := tt.srv.store.AppendTrace(tt.runID, tt.cell, line); err != nil {
		tt.srv.logStoreError("trace", tt.runID, err)
	}
}

func (tt *tailTracer) Phase(p trace.Phase, d time.Duration) {
	if p < trace.NumPhases {
		tt.srv.phases[p].Observe(d)
	}
}

// SetLogger installs a structured logger for request and run-lifecycle
// logs. A nil (or never-set) logger disables logging; the service never
// writes to a default destination on its own.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// routeMetrics is the per-route slice of the HTTP middleware's metrics:
// a latency histogram plus status-class counters (index code/100, so
// classes[2] counts 2xx responses).
type routeMetrics struct {
	dur     trace.Hist
	classes [6]atomic.Uint64
}

// routeStats returns (creating on first use) the metrics slot for a
// route pattern.
func (s *Server) routeStats(route string) *routeMetrics {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.routes == nil {
		s.routes = make(map[string]*routeMetrics)
	}
	rm, ok := s.routes[route]
	if !ok {
		rm = &routeMetrics{}
		s.routes[route] = rm
	}
	return rm
}

// instrument wraps the service mux with per-route latency and
// status-class accounting plus (when a logger is installed) debug-level
// request logs. Routes are labelled by the matched mux pattern — a
// bounded set — never the raw URL, which would let clients mint
// unbounded label values.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //ealb:allow-nondet HTTP latency metric; outside the simulated world
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start) //ealb:allow-nondet HTTP latency metric; outside the simulated world
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		code := sw.status()
		rm := s.routeStats(route)
		rm.dur.Observe(elapsed)
		if class := code / 100; class >= 1 && class <= 5 {
			rm.classes[class].Add(1)
		}
		if s.logger != nil {
			s.logger.Debug("http request",
				"method", r.Method, "route", route, "status", code,
				"remote", r.RemoteAddr, "duration", elapsed)
		}
	})
}

// statusWriter captures the response status code for the middleware. It
// forwards Flush so NDJSON interval/trace tails keep streaming through
// the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// handleTrace streams one cell's decision events as newline-delimited
// JSON (see streamTail). Once the run finishes, the remainder streams
// from the run store (up to the per-cell cap, and for the in-memory store
// its finished-run retention window), so finished runs stay streamable
// without pinning every event in RAM. Trace streams carry no status line,
// unlike interval streams.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.streamTail(w, r, func(run *Run) *tail { return run.traceTail },
		`run has no decision trace (submit with "trace":true on a cluster or farm scenario)`,
		func(lw *lineWriter, run *Run, cell, sent int) {
			if stored, err := s.store.Trace(run.ID, cell); err == nil && sent < len(stored) {
				lw.write(stored[sent:])
			}
		})
}

// histDef is one histogram family instance for /metrics exposition.
type histDef struct {
	name, help string
	labels     string
	snap       trace.HistSnapshot
}

// appendHistMetrics renders the service's histogram families in the
// Prometheus text format: engine job latencies, simulation phase
// timings (populated by traced runs), and per-route HTTP latencies plus
// status-class counters. Route families are emitted in sorted route
// order so the exposition is stable for scrapers and tests.
func (s *Server) appendHistMetrics(b []byte) []byte {
	st := s.pool.Stats()
	hists := []histDef{
		{"ealb_engine_job_queue_wait_seconds", "Wall time from job submission to a worker slot.", "", st.JobQueueWait},
		{"ealb_engine_job_run_seconds", "Wall time jobs spent executing.", "", st.JobRunDuration},
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		hists = append(hists, histDef{
			"ealb_sim_phase_seconds",
			"Per-interval simulation phase wall time, accumulated from traced runs.",
			`phase="` + p.String() + `"`,
			s.phases[p].Snapshot(),
		})
	}

	s.httpMu.Lock()
	routes := make([]string, 0, len(s.routes))
	//ealb:allow-nondet iteration order erased by the sort.Strings below
	for route := range s.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	type routeSnap struct {
		route   string
		dur     trace.HistSnapshot
		classes [6]uint64
	}
	snaps := make([]routeSnap, 0, len(routes))
	for _, route := range routes {
		rm := s.routes[route]
		rs := routeSnap{route: route, dur: rm.dur.Snapshot()}
		for i := range rm.classes {
			rs.classes[i] = rm.classes[i].Load()
		}
		snaps = append(snaps, rs)
	}
	s.httpMu.Unlock()
	for _, rs := range snaps {
		hists = append(hists, histDef{
			"ealb_http_request_duration_seconds",
			"HTTP request latency by route pattern.",
			`route="` + rs.route + `"`,
			rs.dur,
		})
	}

	lastFamily := ""
	for _, h := range hists {
		if h.name != lastFamily {
			b = append(b, "# HELP "+h.name+" "+h.help+"\n"...)
			b = append(b, "# TYPE "+h.name+" histogram\n"...)
			lastFamily = h.name
		}
		b = h.snap.AppendProm(b, h.name, h.labels)
	}

	if len(snaps) > 0 {
		b = append(b, "# HELP ealb_http_requests_total HTTP requests by route pattern and status class.\n"...)
		b = append(b, "# TYPE ealb_http_requests_total counter\n"...)
		for _, rs := range snaps {
			for class := 1; class <= 5; class++ {
				if rs.classes[class] == 0 {
					continue
				}
				b = append(b, "ealb_http_requests_total{route=\""+rs.route+"\",class=\""...)
				b = strconv.AppendInt(b, int64(class), 10)
				b = append(b, `xx"} `...)
				b = strconv.AppendUint(b, rs.classes[class], 10)
				b = append(b, '\n')
			}
		}
	}
	b = append(b, "# HELP ealb_trace_events_dropped_total Decision events dropped past the per-cell trace buffer cap.\n"...)
	b = append(b, "# TYPE ealb_trace_events_dropped_total counter\n"...)
	b = append(b, "ealb_trace_events_dropped_total "...)
	b = strconv.AppendUint(b, s.traceDropped.Load(), 10)
	b = append(b, '\n')
	return b
}
