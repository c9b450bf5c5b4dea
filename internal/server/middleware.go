package server

import (
	"context"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"timedmedia/internal/telemetry"
)

// Lifecycle hardening and observability live in one handler,
// Server.ServeHTTP, over one per-request record: a *request that wraps
// the ResponseWriter and holds the status and bytes written, the trace
// (which carries the request ID, echoed in X-Request-ID) and the route
// the mux matched. In order, ServeHTTP
//
//  1. sheds load — beyond the configured concurrency the server answers
//     503 + Retry-After rather than queueing toward collapse;
//  2. deadlines the request — its context expires after the configured
//     timeout, and /stream and /expand observe it;
//  3. runs the mux, whose route wrapper names the matched route on the
//     record (route="other" when nothing matched or the request was
//     shed);
//  4. on the way out recovers a handler panic — a 500 and a counter
//     instead of a dead process — and records the outcome once: the
//     route's latency histogram, the trace ring and the access log.
//
// Counters for all of it are reported at /metrics.

// lifecycleStats counts what the hardening layer had to do.
type lifecycleStats struct {
	panics          atomic.Int64
	shed            atomic.Int64
	inFlight        atomic.Int64
	streamTruncated atomic.Int64
}

// lifecycleSnapshot is the /metrics JSON shape of lifecycleStats.
type lifecycleSnapshot struct {
	PanicsRecovered int64 `json:"panics_recovered"`
	LoadShed        int64 `json:"load_shed"`
	InFlight        int64 `json:"in_flight"`
	// StreamsTruncated counts /stream responses cut short by a payload
	// error after the body had started (the client sees the
	// X-Stream-Error trailer).
	StreamsTruncated int64 `json:"streams_truncated"`
}

func (s *lifecycleStats) snapshot() lifecycleSnapshot {
	return lifecycleSnapshot{
		PanicsRecovered:  s.panics.Load(),
		LoadShed:         s.shed.Load(),
		InFlight:         s.inFlight.Load(),
		StreamsTruncated: s.streamTruncated.Load(),
	}
}

// routeEntry is a registered route: its name and the latency series
// route() binds to it, so a request records without a label lookup.
type routeEntry struct {
	name string
	hist *telemetry.Histogram
}

// request is the per-request record ServeHTTP keeps. It is the
// ResponseWriter the handlers see: it captures the status and body
// size, and keeps Flush working for streaming handlers (Unwrap
// supports http.ResponseController).
type request struct {
	http.ResponseWriter
	status int
	bytes  int64
	trace  *telemetry.Trace
	route  *routeEntry
}

func (rq *request) WriteHeader(code int) {
	if rq.status == 0 {
		rq.status = code
	}
	rq.ResponseWriter.WriteHeader(code)
}

func (rq *request) Write(p []byte) (int, error) {
	if rq.status == 0 {
		rq.status = http.StatusOK
	}
	n, err := rq.ResponseWriter.Write(p)
	rq.bytes += int64(n)
	return n, err
}

func (rq *request) Flush() {
	if f, ok := rq.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (rq *request) Unwrap() http.ResponseWriter { return rq.ResponseWriter }

// ServeHTTP implements http.Handler: the whole request lifecycle around
// the mux (see the top of this file).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := telemetry.NewRequestID()
	rq := &request{ResponseWriter: w, trace: telemetry.NewTrace(rid, r.Method, r.URL.Path), route: s.other}
	// X-Request-ID in its canonical form: Set would canonicalize the
	// key into a new string on every request.
	w.Header()["X-Request-Id"] = []string{rid}
	defer s.finish(rq, r)

	// At capacity, shed at once instead of queueing: under sustained
	// overload a bounded queue only adds latency before the same
	// rejection.
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		default:
			s.stats.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter/time.Second)))
			WriteError(rq, http.StatusServiceUnavailable, CodeOverloaded, "server overloaded")
			return
		}
	}
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)

	// The deadline does not buffer the response, unlike
	// http.TimeoutHandler, so streaming keeps working; handlers observe
	// it through r.Context().
	ctx := telemetry.WithTrace(r.Context(), rq.trace)
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	s.mux.ServeHTTP(rq, r.WithContext(ctx))
}

// finish, deferred by ServeHTTP, turns a handler panic into a 500 and a
// counter increment, and records the request once. The response may
// already be partly written (a panic mid-stream); then the 500's
// WriteHeader fails silently, which is the best that can be done
// without buffering every response.
func (s *Server) finish(rq *request, r *http.Request) {
	if v := recover(); v != nil {
		s.stats.panics.Add(1)
		log.Printf("server: panic in %s %s: %v", r.Method, r.URL.Path, v)
		http.Error(rq, "internal server error", http.StatusInternalServerError)
	}
	status := rq.status
	if status == 0 {
		status = http.StatusOK // the handler wrote nothing: net/http sends 200
	}
	rec, d := rq.trace.Finish(rq.route.name, status, rq.bytes)
	rq.route.hist.Observe(d)
	s.tracer.Add(rec)
	if s.accessLog != nil {
		s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
			slog.String("request_id", rec.RequestID),
			slog.String("method", rec.Method),
			slog.String("path", rec.Path),
			slog.String("route", rec.Route),
			slog.Int("status", status),
			slog.Int64("bytes", rec.Bytes),
			slog.Duration("duration", d),
		)
	}
}
