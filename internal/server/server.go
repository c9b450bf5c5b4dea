// Package server exposes a catalog over HTTP — the "video on-demand
// services" the paper's introduction names as a driver for multimedia
// databases. The API is read-mostly and element-oriented: clients
// browse objects, inspect descriptors and timelines, fetch individual
// elements by index or time, and stream an object's elements in
// presentation order.
//
// Object routes are versioned under /v1; any other path, the
// pre-versioning /objects... included, is a 404 error envelope:
//
//	GET /v1/query?...                       indexed structural query: kind, class,
//	                                        attr.K=V, derived_from, live_at,
//	                                        overlaps, durations, sort, pagination
//	                                        (see query.go)
//	GET /v1/objects?...                     the same handler as /v1/query, every
//	                                        parameter and every 400 included
//	GET /v1/objects/{name}                  one object: descriptor, categories, attrs
//	GET /v1/objects/{name}/element/{i}      raw payload of element i
//	GET /v1/objects/{name}/at/{tick}        payload of the element covering tick
//	GET /v1/objects/{name}/stream?from=&to= chunked elements in presentation order
//	GET /v1/objects/{name}/expand           expand (decode) an object; JSON summary
//	GET /v1/objects/{name}/timeline         multimedia timeline (JSON); the
//	                                        Fig. 4a axis under Accept: text/plain
//	GET /v1/objects/{name}/lineage          Figure 5 layers (JSON); the instance
//	                                        diagram under Accept: text/plain
//	POST /v1/objects/{name}/cut?out=&from=&to=  create an edit derivation
//	POST /v1/objects:batch                  atomic multi-object create (JSON)
//	GET /v1/debug/trace                     recent request traces (JSON)
//	GET /metrics                            Prometheus text exposition;
//	                                        JSON under Accept: application/json
//	GET /healthz                            liveness probe (+ replication status
//	                                        when the node replicates)
//	GET /v1/readyz                          readiness probe: 503 + reason while a
//	                                        replica is catching up
//
// A replica additionally rejects the mutating routes with 409
// read_only (X-Primary names where to write) and mounts the
// replication feed endpoints of internal/repl via WithRoute.
//
// Every response carries an X-Request-ID header; API errors are JSON
// envelopes {"error":{"code":"...","message":"..."}} (see errors.go).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/expcache"
	"timedmedia/internal/interp"
	"timedmedia/internal/query"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

// DefaultMaxInFlight bounds concurrent requests when no option is
// given; requests beyond it are shed with 503 + Retry-After.
const DefaultMaxInFlight = 1024

// DefaultRequestTimeout is the per-request context deadline when no
// option is given.
const DefaultRequestTimeout = 30 * time.Second

// Option configures a Server.
type Option func(*serverConfig)

type serverConfig struct {
	maxInFlight    int
	requestTimeout time.Duration
	registry       *telemetry.Registry
	accessLog      *slog.Logger
	readiness      func() (bool, string)
	writeGate      func() (bool, string)
	replStatus     func() any
	extraRoutes    []extraRoute
}

type extraRoute struct {
	pattern, name string
	h             http.HandlerFunc
}

// WithMaxInFlight bounds concurrent requests to n; n <= 0 removes the
// bound.
func WithMaxInFlight(n int) Option {
	return func(c *serverConfig) { c.maxInFlight = n }
}

// WithRequestTimeout sets the per-request context deadline; d <= 0
// disables it.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *serverConfig) { c.requestTimeout = d }
}

// WithTelemetry uses reg for the server's histograms and counters
// instead of a fresh registry, so one /metrics exposition can cover
// several components sharing it.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *serverConfig) { c.registry = reg }
}

// WithAccessLog emits one structured line per request (request ID,
// route, status, bytes, duration) to l.
func WithAccessLog(l *slog.Logger) Option {
	return func(c *serverConfig) { c.accessLog = l }
}

// WithReadiness installs the GET /v1/readyz probe: ready() false makes
// the endpoint answer 503 with the returned reason. Without it the
// server is ready whenever it is serving. Liveness (/healthz) is
// unaffected — a catching-up replica is alive but not ready.
func WithReadiness(ready func() (ok bool, reason string)) Option {
	return func(c *serverConfig) { c.readiness = ready }
}

// WithWriteGate guards the mutating routes (cut, batch): when allowed()
// is false they answer 409 read_only, with the returned primary URL in
// the message and an X-Primary header so clients can redirect
// themselves. Replicas install this until promotion.
func WithWriteGate(allowed func() (ok bool, primary string)) Option {
	return func(c *serverConfig) { c.writeGate = allowed }
}

// WithReplStatus merges status() into the /healthz body under
// "replication", surfacing role, seq, and lag next to liveness.
func WithReplStatus(status func() any) Option {
	return func(c *serverConfig) { c.replStatus = status }
}

// WithRoute mounts an extra handler (e.g. the replication feed or the
// promote hook) on the server's mux with the same per-route telemetry
// as the built-in endpoints.
func WithRoute(pattern, name string, h http.HandlerFunc) Option {
	return func(c *serverConfig) {
		c.extraRoutes = append(c.extraRoutes, extraRoute{pattern: pattern, name: name, h: h})
	}
}

// Server serves a catalog over HTTP.
type Server struct {
	db         *catalog.DB
	mux        *http.ServeMux
	other      *routeEntry   // the route of unmatched and shed requests
	slots      chan struct{} // in-flight bound; nil: none
	retryAfter time.Duration // the Retry-After hint a shed request carries
	timeout    time.Duration // per-request deadline; 0: none
	stats      lifecycleStats
	readiness  func() (bool, string)
	writeGate  func() (bool, string)
	replStatus func() any

	reg         *telemetry.Registry
	tracer      *telemetry.Tracer
	lookupHist  *telemetry.Histogram
	payloadHist *telemetry.Histogram
	asOfHist    *telemetry.Histogram
	accessLog   *slog.Logger
}

// New builds a Server over db. Its handler sheds load beyond the
// in-flight bound, deadlines every request, recovers panics and
// records request telemetry (see middleware.go).
//
// Registry resolution: an explicit WithTelemetry wins, else a registry
// already attached to db is shared, else a fresh one is created. The
// resolved registry is (re)attached to db so catalog stage histograms
// always land in the same exposition.
func New(db *catalog.DB, opts ...Option) *Server {
	cfg := serverConfig{maxInFlight: DefaultMaxInFlight, requestTimeout: DefaultRequestTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.registry
	if reg == nil {
		reg = db.Telemetry()
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	db.SetTelemetry(reg)

	s := &Server{
		db:          db,
		mux:         http.NewServeMux(),
		retryAfter:  time.Second,
		timeout:     cfg.requestTimeout,
		reg:         reg,
		tracer:      telemetry.NewTracer(telemetry.DefaultTraceCapacity),
		lookupHist:  reg.Histogram(telemetry.StageFamily, telemetry.StageLookup),
		payloadHist: reg.Histogram(telemetry.StageFamily, telemetry.StagePayload),
		asOfHist:    reg.Histogram(telemetry.StageFamily, telemetry.StageAsOfResolve),
		accessLog:   cfg.accessLog,
		readiness:   cfg.readiness,
		writeGate:   cfg.writeGate,
		replStatus:  cfg.replStatus,
	}
	// The object list is the query route under its old path; its own
	// route label keeps its latency series.
	s.route("GET /v1/objects", "list", s.handleQuery)
	s.route("GET /v1/query", "query", s.handleQuery)
	s.route("GET /v1/objects/{name}", "object", s.handleObject)
	s.route("GET /v1/objects/{name}/element/{i}", "element", s.handleElement)
	s.route("GET /v1/objects/{name}/at/{tick}", "at", s.handleAt)
	s.route("GET /v1/objects/{name}/stream", "stream", s.handleStream)
	s.route("GET /v1/objects/{name}/expand", "expand", s.handleExpand)
	s.route("GET /v1/objects/{name}/timeline", "timeline", s.handleTimeline)
	s.route("GET /v1/objects/{name}/lineage", "lineage", s.handleLineage)
	s.route("POST /v1/objects/{name}/cut", "cut", s.handleCut)
	s.route("POST /v1/objects:batch", "batch", s.handleBatch)
	s.route("GET /v1/debug/trace", "trace", s.handleTrace)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /v1/readyz", "readyz", s.handleReadyz)
	s.other = s.route("/", "other", s.handleUnmatched)
	for _, er := range cfg.extraRoutes {
		s.route(er.pattern, er.name, er.h)
	}
	if cfg.maxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.maxInFlight)
	}
	return s
}

// route registers a handler under a stable route name. The name labels
// the per-route latency series, created here so /metrics lists every
// endpoint from the start, and the handler names the route on the
// request record ServeHTTP keeps.
func (s *Server) route(pattern, name string, h http.HandlerFunc) *routeEntry {
	e := &routeEntry{name: name, hist: s.reg.Histogram(telemetry.RequestFamily, `route="`+name+`"`)}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rq, ok := w.(*request); ok {
			rq.route = e
		}
		h(w, r)
	})
	return e
}

// objectSummary is the list/detail JSON shape.
type objectSummary struct {
	ID         uint64            `json:"id"`
	Name       string            `json:"name"`
	Class      string            `json:"class"`
	Kind       string            `json:"kind"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Descriptor string            `json:"descriptor,omitempty"`
	Categories string            `json:"categories,omitempty"`
	Elements   int               `json:"elements,omitempty"`
	Bytes      int64             `json:"bytes,omitempty"`
	Derivation string            `json:"derivation,omitempty"`
}

// summarize renders an object against the epoch view it was read
// from — the interpretation table is part of the epoch, so descriptor
// and element counts stay consistent with the pinned object.
func (s *Server) summarize(v *catalog.View, obj *core.Object) objectSummary {
	out := objectSummary{
		ID:    uint64(obj.ID),
		Name:  obj.Name,
		Class: obj.Class.String(),
		Kind:  obj.Kind.String(),
		Attrs: obj.Attrs,
	}
	switch obj.Class {
	case core.ClassNonDerived:
		if it, err := v.Interpretation(obj.Blob); err == nil {
			if tr, err := it.Track(obj.Track); err == nil {
				out.Descriptor = tr.Descriptor().String()
				out.Categories = tr.Stream().Classify().String()
				out.Elements = tr.Len()
				out.Bytes = tr.TotalBytes()
			}
		}
	case core.ClassDerived:
		// Inputs spelled #N, as a summary line spells an object's own ID.
		b := append([]byte(obj.Derivation.Op), '[')
		for i, in := range obj.Derivation.Inputs {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(append(b, '#'), uint64(in), 10)
		}
		out.Derivation = string(append(b, ']'))
	}
	return out
}

// source resolves a stored object to its interpretation and track for
// reading its element bytes, as of the epoch view the object was read
// from (see View.Payloads). Derived and multimedia objects have no
// stored elements — they must be expanded/played instead — so they
// fail with ErrNotMedia rather than a nil-interpretation panic.
func (s *Server) source(v *catalog.View, obj *core.Object) (*interp.Interpretation, *interp.Track, error) {
	if obj.Class != core.ClassNonDerived {
		return nil, nil, fmt.Errorf("%w: %s has no stored elements", catalog.ErrNotMedia, obj.Name)
	}
	it, err := v.Payloads(obj.Blob)
	if err != nil {
		return nil, nil, err
	}
	tr, err := it.Track(obj.Track)
	if err != nil {
		return nil, nil, err
	}
	return it, tr, nil
}

// payload fetches one element's bytes, timing the fetch into the
// payload stage histogram and the request trace.
func (s *Server) payload(r *http.Request, it *interp.Interpretation, track string, i int) ([]byte, error) {
	done := telemetry.StartSpan(r.Context(), "payload")
	start := time.Now()
	data, err := it.Payload(track, i)
	s.payloadHist.Observe(time.Since(start))
	done()
	return data, err
}

// writeJSON encodes to a buffer first so an encoding failure can still
// produce a clean 500: calling http.Error after the encoder has
// written part of the body would corrupt the response.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// writeJSONStatus is writeJSON with an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// wantsText reports whether a request asks for the text form of a
// route that has one (timeline, lineage).
func wantsText(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// writeText answers with a route's text form, or with err's envelope.
func writeText(w http.ResponseWriter, text string, err error) {
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, text)
}

// listReply is the paginated shape of GET /v1/query (and /v1/objects).
// Epoch is the journal seq the page was read at — pass it back as
// ?as_of= to make the next page mutually consistent with this one.
// NextOffset is present only when more objects follow the returned
// page and the page advanced: a limit=0 page links nowhere, as
// following it would fetch the same page forever.
type listReply struct {
	Objects    []objectSummary `json:"objects"`
	Total      int             `json:"total"`
	Epoch      uint64          `json:"epoch"`
	NextOffset *int            `json:"next_offset,omitempty"`
}

// writeListPage renders the paginated listReply envelope for page
// starting at offset out of total matches, all computed against the
// pinned view v.
func writeListPage(w http.ResponseWriter, s *Server, v *catalog.View, page []*core.Object, offset, total int) {
	// Non-nil so an empty page encodes as [] rather than null.
	out := []objectSummary{}
	for _, obj := range page {
		out = append(out, s.summarize(v, obj))
	}
	reply := listReply{Objects: out, Total: total, Epoch: v.Epoch()}
	if end := offset + len(page); len(page) > 0 && end < total {
		next := end
		reply.NextOffset = &next
	}
	writeJSON(w, reply)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	// as_of= reads the object as it stood at that journal sequence —
	// including names whose object has since been deleted or revised.
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	writeJSON(w, s.summarize(v, obj))
}

func (s *Server) handleElement(w http.ResponseWriter, r *http.Request) {
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		badRequest(w, "bad element index")
		return
	}
	it, _, err := s.source(v, obj)
	if err != nil {
		httpError(w, err)
		return
	}
	payload, err := s.payload(r, it, obj.Track, i)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// atReply is the JSON shape of GET .../at/{tick}?format=json — the
// same objectSummary envelope the query path uses, plus the resolved
// element.
type atReply struct {
	Epoch   uint64        `json:"epoch"`
	Object  objectSummary `json:"object"`
	Element int           `json:"element"`
	Tick    int64         `json:"tick"`
	Seconds float64       `json:"seconds"`
}

// handleAt resolves the element covering an instant. The route is a
// thin alias over the planner path behind /v1/query?live_at=: the
// tick converts to seconds through the track's own time system, the
// same pinned-view planner predicate confirms the object is live at
// that instant (interval index), and the covering element index comes
// from the track. The default response is the raw element payload
// (the pre-epoch shape); ?format=json returns the shared
// objectSummary envelope instead. See README for the mapping table.
func (s *Server) handleAt(w http.ResponseWriter, r *http.Request) {
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	tick, err := strconv.ParseInt(r.PathValue("tick"), 10, 64)
	if err != nil {
		badRequest(w, "bad tick")
		return
	}
	it, tr, err := s.source(v, obj)
	if err != nil {
		httpError(w, err)
		return
	}
	// The same predicate /v1/query?live_at= plans with, against the
	// same pinned view: an object with a timed extent must cover the
	// instant in the interval index. Untimed tracks have no span
	// there (index.go), so for them the element index alone decides.
	live, sec := true, 0.0
	if obj.Desc != nil && obj.Desc.TimeSystem().Valid() {
		sec = obj.Desc.TimeSystem().Seconds(tick)
		name := obj.Name
		live = query.At(v).LiveAt(sec).
			Where(func(o *core.Object) bool { return o.Name == name }).
			Count() > 0
	}
	i, found := tr.ElementAt(tick)
	if !found || !live {
		WriteError(w, http.StatusNotFound, CodeNoElement, "no element at tick")
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, atReply{
			Epoch:   v.Epoch(),
			Object:  s.summarize(v, obj),
			Element: i,
			Tick:    tick,
			Seconds: sec,
		})
		return
	}
	payload, err := s.payload(r, it, obj.Track, i)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("X-Element-Index", strconv.Itoa(i))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// handleStream sends elements [from, to) in presentation order as a
// length-prefixed byte stream: for each element an 8-byte big-endian
// length then the payload. A mid-stream failure cannot change the
// status line (headers are long gone), so the error is reported in the
// X-Stream-Error trailer — its absence distinguishes completion from
// truncation — counted in lifecycle stats, and logged with the request
// ID.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	it, tr, err := s.source(v, obj)
	if err != nil {
		httpError(w, err)
		return
	}
	from, to := 0, tr.Len()
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil {
			badRequest(w, "bad from")
			return
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil {
			badRequest(w, "bad to")
			return
		}
	}
	if from < 0 || to > tr.Len() || from > to {
		badRequest(w, "range out of bounds")
		return
	}
	// Declared before the body starts so net/http sends it as a real
	// HTTP trailer on the chunked response.
	w.Header().Set("Trailer", "X-Stream-Error")
	w.Header().Set("Content-Type", "application/octet-stream")
	// A client that stops reading blocks a Write, and the request's
	// deadline does not unblock it: the handler, and its in-flight slot,
	// would wait forever. So the deadline bounds the writes too. It is
	// cleared on the way out, so that the next request on a keep-alive
	// connection does not inherit it whatever the net/http version (the
	// server sets no WriteTimeout of its own).
	if dl, ok := r.Context().Deadline(); ok {
		rc := http.NewResponseController(w)
		if rc.SetWriteDeadline(dl) == nil {
			defer rc.SetWriteDeadline(time.Time{})
		}
	}
	defer telemetry.StartSpan(r.Context(), "payload")()
	wrote := false
	var hdr [8]byte
	for i := from; i < to; i++ {
		// Stop streaming when the client goes away or the request
		// deadline expires; headers are already sent, so the stream
		// truncates, with the reason in the trailer.
		if err := r.Context().Err(); err != nil {
			w.Header().Set("X-Stream-Error", err.Error())
			return
		}
		start := time.Now()
		payload, err := it.Payload(obj.Track, i)
		s.payloadHist.Observe(time.Since(start))
		if err != nil {
			if !wrote {
				// Nothing sent yet: a proper error response is still
				// possible.
				httpError(w, err)
				return
			}
			s.stats.streamTruncated.Add(1)
			s.logStreamError(r, obj.Name, i, err)
			w.Header().Set("X-Stream-Error", fmt.Sprintf("element %d: %v", i, err))
			return
		}
		n := uint64(len(payload))
		for b := 0; b < 8; b++ {
			hdr[b] = byte(n >> (56 - 8*b))
		}
		if _, err := w.Write(hdr[:]); err != nil {
			return
		}
		wrote = true
		if _, err := w.Write(payload); err != nil {
			return
		}
	}
}

// logStreamError records a mid-stream truncation with enough context
// to find the request again.
func (s *Server) logStreamError(r *http.Request, name string, elem int, err error) {
	rid := telemetry.TraceFrom(r.Context()).RequestID()
	if s.accessLog != nil {
		s.accessLog.Error("stream truncated",
			slog.String("request_id", rid),
			slog.String("object", name),
			slog.Int("element", elem),
			slog.String("error", err.Error()),
		)
		return
	}
	log.Printf("server: stream truncated request_id=%s object=%s element=%d: %v", rid, name, elem, err)
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	mm, err := v.BuildMultimedia(obj.ID)
	if err != nil {
		httpError(w, err)
		return
	}
	if wantsText(r) {
		text, err := mm.RenderTimeline(64)
		writeText(w, text, err)
		return
	}
	spans, err := mm.Timeline()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, spans)
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	v, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, v, asOfStart)
	if !ok {
		return
	}
	if wantsText(r) {
		text, err := v.InstanceDiagram(obj.ID)
		writeText(w, text, err)
		return
	}
	nodes, err := v.Lineage(obj.ID)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, nodes)
}

func (s *Server) handleCut(w http.ResponseWriter, r *http.Request) {
	if !s.writeAllowed(w) {
		return
	}
	// A mutation resolves its input against the current epoch — no
	// pin, no ETag: the write's effect lands in a future epoch anyway.
	obj, ok := s.lookupPinned(w, r, s.db.CurrentView(), time.Time{})
	if !ok {
		return
	}
	q := r.URL.Query()
	out := q.Get("out")
	from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
	to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
	if out == "" || err1 != nil || err2 != nil {
		badRequest(w, "want ?out=name&from=N&to=N")
		return
	}
	// The span covers the whole journaled mutation; the precise
	// journal fsync time lands in the journal_append stage histogram.
	done := telemetry.StartSpan(r.Context(), "journal_append")
	id, err := s.db.SelectDuration(obj.ID, out, from, to)
	done()
	if err != nil {
		httpError(w, err)
		return
	}
	cur := s.db.CurrentView()
	created, err := cur.Get(id)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, s.summarize(cur, created))
}

// expandSummary is the JSON shape of GET /v1/objects/{name}/expand:
// the materialized value's metadata, not its bytes (use /element or
// /stream for payloads).
type expandSummary struct {
	Name          string `json:"name"`
	Kind          string `json:"kind"`
	Elements      int    `json:"elements"`
	DurationTicks int64  `json:"duration_ticks"`
	SizeBytes     int64  `json:"size_bytes"`
	Rate          string `json:"rate,omitempty"`
}

// handleExpand materializes an object through the expansion cache —
// the on-demand expansion of Definition 6 — and reports what was
// produced. Repeated requests hit the cache; concurrent requests for
// the same object share one decode.
func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	pv, asOfStart, ok := s.pin(w, r)
	if !ok {
		return
	}
	obj, ok := s.lookupPinned(w, r, pv, asOfStart)
	if !ok {
		return
	}
	v, err := pv.ExpandContext(r.Context(), obj.ID)
	if err != nil {
		httpError(w, err)
		return
	}
	out := expandSummary{
		Name:          obj.Name,
		Kind:          v.Kind.String(),
		Elements:      v.Elements(),
		DurationTicks: v.DurationTicks(),
		SizeBytes:     v.SizeBytes(),
	}
	if v.Rate.Valid() {
		out.Rate = v.Rate.String()
	}
	writeJSON(w, out)
}

// metricsReply is the JSON shape of GET /metrics under
// Accept: application/json.
type metricsReply struct {
	Objects        int                    `json:"objects"`
	ExpansionCache expcache.StatsSnapshot `json:"expansion_cache"`
	Journal        wal.StatsSnapshot      `json:"journal"`
	Recovery       catalog.RecoveryInfo   `json:"recovery"`
	Checkpoints    checkpointStats        `json:"checkpoints"`
	Lifecycle      lifecycleSnapshot      `json:"lifecycle"`
}

// checkpointStats is the JSON view of the tbm_checkpoints_total and
// tbm_checkpoint_bytes_total counters.
type checkpointStats struct {
	Full             int64 `json:"full"`
	Incremental      int64 `json:"incremental"`
	FullBytes        int64 `json:"full_bytes"`
	IncrementalBytes int64 `json:"incremental_bytes"`
}

func (s *Server) checkpointStats() checkpointStats {
	load := func(family, mode string) int64 { return s.reg.Counter(family, `mode="`+mode+`"`).Load() }
	return checkpointStats{
		Full:             load(telemetry.CheckpointFamily, "full"),
		Incremental:      load(telemetry.CheckpointFamily, "incremental"),
		FullBytes:        load(telemetry.CheckpointBytesFamily, "full"),
		IncrementalBytes: load(telemetry.CheckpointBytesFamily, "incremental"),
	}
}

// handleTrace serves the bounded ring of recent request traces,
// newest first.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Snapshot()
	if traces == nil {
		traces = []telemetry.TraceRecord{}
	}
	writeJSON(w, map[string]any{"traces": traces})
}

// handleUnmatched answers a method and path no route serves with the
// API's error envelope instead of the mux's plain-text 404.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	WriteError(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.Method+" "+r.URL.Path)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"status": "ok"}
	if s.replStatus != nil {
		out["replication"] = s.replStatus()
	}
	writeJSON(w, out)
}

// handleReadyz is the readiness probe: distinct from /healthz so a
// load balancer can keep a lagging replica alive but out of rotation.
// 200 means "safe to route reads here"; 503 carries the reason.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.readiness != nil {
		if ok, reason := s.readiness(); !ok {
			writeJSONStatus(w, http.StatusServiceUnavailable,
				map[string]string{"status": "not_ready", "reason": reason})
			return
		}
	}
	// seq is the newest committed journal sequence — the upper bound a
	// client can ask for with /v1/query?as_of= (closed-loop load
	// generators draw as-of targets from it).
	writeJSON(w, map[string]any{"status": "ready", "seq": s.db.Seq()})
}

// writeAllowed guards a mutating route behind the write gate. When the
// node is a replica the response is 409 read_only naming the primary
// (also in X-Primary, so scripted clients can redirect without parsing
// the envelope).
func (s *Server) writeAllowed(w http.ResponseWriter) bool {
	if s.writeGate == nil {
		return true
	}
	ok, primary := s.writeGate()
	if ok {
		return true
	}
	msg := "read-only replica: writes must go to the primary"
	if primary != "" {
		w.Header().Set("X-Primary", primary)
		msg += " at " + primary
	}
	WriteError(w, http.StatusConflict, CodeReadOnly, msg)
	return false
}
