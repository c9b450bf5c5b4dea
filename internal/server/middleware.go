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

// Lifecycle hardening and observability: the handler chain wraps the
// mux with, from the outside in,
//
//  1. panic recovery — a handler panic 500s that request and bumps a
//     counter instead of killing the process;
//  2. request telemetry — a request ID is generated, echoed in
//     X-Request-ID and propagated via context; the response status,
//     bytes and duration feed the per-route latency histogram, the
//     trace ring and the access log;
//  3. an in-flight limiter — beyond the configured concurrency the
//     server sheds load with 503 + Retry-After rather than queueing
//     toward collapse;
//  4. a per-request deadline — the request context expires after the
//     configured timeout, and /stream and /expand observe it.
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

// recoverMiddleware converts a handler panic into a 500 and a counter
// increment. The response may already be partially written (e.g. a
// panic mid-stream); in that case the WriteHeader fails silently,
// which is the best that can be done without buffering every
// response.
func recoverMiddleware(stats *lifecycleStats, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				stats.panics.Add(1)
				log.Printf("server: panic in %s %s: %v", r.Method, r.URL.Path, v)
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// limitMiddleware bounds concurrent requests. At capacity it sheds
// immediately with 503 and a Retry-After hint instead of queueing:
// under sustained overload a bounded queue only adds latency before
// the same rejection.
func limitMiddleware(stats *lifecycleStats, slots chan struct{}, retryAfter time.Duration, next http.Handler) http.Handler {
	if slots == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			stats.inFlight.Add(1)
			defer func() {
				stats.inFlight.Add(-1)
				<-slots
			}()
			next.ServeHTTP(w, r)
		default:
			stats.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
			writeError(w, http.StatusServiceUnavailable, CodeOverloaded, "server overloaded")
		}
	})
}

// timeoutMiddleware attaches a deadline to each request's context.
// Unlike http.TimeoutHandler it does not buffer the response, so
// streaming keeps working; handlers observe the deadline through
// r.Context().
func timeoutMiddleware(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// routeKey is the context key of the matched route name, filled in by
// the registration wrapper (http.Request.Pattern needs Go 1.23, and
// the module supports 1.22).
type serverCtxKey int

const routeKey serverCtxKey = 0

// routeHolder lets the routing layer report the matched route name
// back to the telemetry middleware that wrapped it.
type routeHolder struct{ name string }

func routeFrom(ctx context.Context) *routeHolder {
	rh, _ := ctx.Value(routeKey).(*routeHolder)
	return rh
}

// statusRecorder captures the status and body size of a response, and
// keeps Flush working for streaming handlers. Unwrap supports
// http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status    int
	bytes     int64
	completed bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// telemetryMiddleware issues the request ID, carries the trace through
// context, and on completion feeds the per-route histogram, the trace
// ring and the access log. It sits inside recoverMiddleware: a panic
// unwinds through the deferred finalizer (recording the request as a
// 500 unless a status was already written) and is then recovered
// outside.
func (s *Server) telemetryMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := telemetry.NewRequestID()
		tr := telemetry.NewTrace(rid, r.Method, r.URL.Path)
		rh := &routeHolder{}
		ctx := telemetry.WithRequestID(r.Context(), rid)
		ctx = telemetry.WithTrace(ctx, tr)
		ctx = context.WithValue(ctx, routeKey, rh)
		w.Header().Set("X-Request-ID", rid)
		rec := &statusRecorder{ResponseWriter: w}
		method, path := r.Method, r.URL.Path
		defer func() {
			d := time.Since(start)
			status := rec.status
			if status == 0 {
				if rec.completed {
					status = http.StatusOK
				} else {
					status = http.StatusInternalServerError // panicked before writing
				}
			}
			route := rh.name
			if route == "" {
				route = "other" // unmatched: 404s, bad methods
			}
			s.reg.Histogram(telemetry.RequestFamily, `route="`+route+`"`).Observe(d)
			s.tracer.Add(tr.Finish(status, rec.bytes, d))
			if s.accessLog != nil {
				s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
					slog.String("request_id", rid),
					slog.String("method", method),
					slog.String("path", path),
					slog.String("route", route),
					slog.Int("status", status),
					slog.Int64("bytes", rec.bytes),
					slog.Duration("duration", d),
				)
			}
		}()
		next.ServeHTTP(rec, r.WithContext(ctx))
		rec.completed = true
	})
}
