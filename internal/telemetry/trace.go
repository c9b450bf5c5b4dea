package telemetry

import (
	"sync"
	"time"
)

// SpanRecord is one completed stage within a request, with
// microsecond offsets relative to the request start so the JSON stays
// compact and human-scannable.
type SpanRecord struct {
	Name           string `json:"name"`
	StartMicros    int64  `json:"start_us"`
	DurationMicros int64  `json:"duration_us"`
}

// TraceRecord is the finished, immutable form of a request trace as
// served by /v1/debug/trace.
type TraceRecord struct {
	RequestID      string       `json:"request_id"`
	Method         string       `json:"method"`
	Path           string       `json:"path"`
	Route          string       `json:"route,omitempty"`
	Start          time.Time    `json:"start"`
	Status         int          `json:"status"`
	Bytes          int64        `json:"bytes"`
	DurationMicros int64        `json:"duration_us"`
	Spans          []SpanRecord `json:"spans,omitempty"`
}

// Trace accumulates spans for one in-flight request. Spans may be
// added from the handler goroutine and (via context) from code it
// calls; a mutex guards the slice. Compute paths shared between
// requests (e.g. a singleflight fill) must not stamp a borrowed
// trace — only the request that owns the context records into it.
type Trace struct {
	mu     sync.Mutex
	rec    TraceRecord
	start  time.Time
	closed bool
}

// NewTrace starts a trace for one request.
func NewTrace(id, method, path string) *Trace {
	now := time.Now()
	return &Trace{
		rec:   TraceRecord{RequestID: id, Method: method, Path: path, Start: now},
		start: now,
	}
}

// RequestID returns the ID of the request the trace records ("" for
// nil). It is fixed at NewTrace, so reading it takes no lock.
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.rec.RequestID
}

// AddSpanAt appends a completed span that began at start and ran for
// d. Spans arriving after Finish are dropped — the record has already
// been published to the ring.
func (t *Trace) AddSpanAt(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.rec.Spans = append(t.rec.Spans, SpanRecord{
		Name:           name,
		StartMicros:    start.Sub(t.start).Microseconds(),
		DurationMicros: d.Microseconds(),
	})
}

// Finish seals the trace with the route that served the request and the
// response outcome, and returns the immutable record and the time since
// NewTrace. Further AddSpanAt calls are ignored.
func (t *Trace) Finish(route string, status int, bytes int64) (TraceRecord, time.Duration) {
	d := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.rec.Route = route
	t.rec.Status = status
	t.rec.Bytes = bytes
	t.rec.DurationMicros = d.Microseconds()
	return t.rec, d
}

// Tracer is a bounded ring of recent request traces. Adding never
// blocks readers for long: the ring holds completed records only.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceRecord
	next int
	n    int
}

// DefaultTraceCapacity is the ring size used when NewTracer is given
// a non-positive capacity.
const DefaultTraceCapacity = 256

// NewTracer returns a ring holding the most recent capacity traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]TraceRecord, capacity)}
}

// Add stores a completed trace record, evicting the oldest when full.
// Nil-safe.
func (t *Tracer) Add(rec TraceRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot returns the stored traces, newest first.
func (t *Tracer) Snapshot() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}
