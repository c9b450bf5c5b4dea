package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"timedmedia/internal/workload"
)

// Trace capture records every request the server completes — method,
// path, request body (mutations), response status, normalized body
// digest, the epoch the response was served from, and the service
// time — into a workload.Recorder (tbmserve -trace-out). The trace is
// the input to deterministic replay (tbmload replay).
//
// Placement in the middleware chain matters and is a recorded
// guarantee: capture sits OUTSIDE the load-shedding limiter, so a
// request rejected with 503 by the shed path is still recorded — shed
// requests are part of the workload truth — but flagged Shed so
// replay knows the request never reached a handler and must not be
// re-issued. The limiter reports the shed
// through the captureState it finds in the request context.

// captureBodyCap bounds how much request body capture will buffer; a
// larger body is passed through unrecorded (the record keeps its
// status and digest but cannot be replayed as a mutation). The API's
// mutation bodies are key-value JSON far below this.
const captureBodyCap = 16 << 20

// captureRespCap bounds how much of a JSON response capture buffers
// for normalization; beyond it the digest falls back to raw hashing.
const captureRespCap = 8 << 20

// captureState is shared through the context between the capture
// middleware and the inner middlewares that know things about the
// request capture cannot see from outside.
type captureState struct {
	shed bool
}

func captureFrom(ctx context.Context) *captureState {
	cs, _ := ctx.Value(captureKey).(*captureState)
	return cs
}

// captureWriter observes the response: status, content type, and a
// digest of the body. JSON bodies are buffered (up to captureRespCap)
// so the digest can be normalized exactly the way replay normalizes
// its own responses; anything else — element payloads, streams — is
// hashed incrementally without buffering.
type captureWriter struct {
	http.ResponseWriter
	status  int
	ct      string
	json    bool
	buf     bytes.Buffer
	hasher  io.Writer
	rawSum  [32]byte
	started bool
}

func (cw *captureWriter) begin() {
	if cw.started {
		return
	}
	cw.started = true
	cw.ct = cw.Header().Get("Content-Type")
	cw.json = strings.HasPrefix(cw.ct, "application/json")
	if !cw.json {
		h := sha256.New()
		cw.hasher = h
	}
}

func (cw *captureWriter) WriteHeader(code int) {
	if cw.status == 0 {
		cw.status = code
	}
	cw.begin()
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *captureWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	cw.begin()
	if cw.json {
		if cw.buf.Len()+len(p) <= captureRespCap {
			cw.buf.Write(p)
		} else {
			// Too large to normalize: demote to raw hashing of what
			// was buffered plus the rest.
			h := sha256.New()
			h.Write(cw.buf.Bytes())
			cw.buf.Reset()
			cw.hasher = h
			cw.json = false
		}
	}
	if cw.hasher != nil {
		cw.hasher.Write(p)
	}
	return cw.ResponseWriter.Write(p)
}

func (cw *captureWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (cw *captureWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

// digest finalizes the response digest with the same normalization
// replay applies (workload.BodyDigest for buffered JSON, raw SHA-256
// otherwise).
func (cw *captureWriter) digest() string {
	if cw.json {
		return workload.BodyDigest(cw.ct, cw.buf.Bytes())
	}
	if h, ok := cw.hasher.(interface{ Sum([]byte) []byte }); ok {
		return hex.EncodeToString(h.Sum(nil))
	}
	// No body was ever written (e.g. 304): digest of empty bytes.
	sum := sha256.Sum256(nil)
	return hex.EncodeToString(sum[:])
}

// captureMiddleware records completed requests into rec. It runs
// inside telemetryMiddleware (so the matched route name is visible in
// the shared routeHolder) and outside limitMiddleware (so shed
// requests are recorded too).
func (s *Server) captureMiddleware(rec *workload.Recorder, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	epoch := time.Now()
	var logOnce sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		at := time.Since(epoch)
		cs := &captureState{}
		ctx := context.WithValue(r.Context(), captureKey, cs)
		r = r.WithContext(ctx)

		// Buffer the request body so both the handler and the trace
		// can read it. GETs have none; oversized bodies pass through
		// unrecorded.
		var reqBody []byte
		if r.Method != http.MethodGet && r.Body != nil {
			data, err := io.ReadAll(io.LimitReader(r.Body, captureBodyCap+1))
			if err == nil && len(data) <= captureBodyCap {
				reqBody = data
				r.Body = io.NopCloser(bytes.NewReader(data))
			} else if err == nil {
				// Reassemble the oversized body for the handler.
				r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(data), r.Body))
			}
		}

		cw := &captureWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		lat := time.Since(start)

		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		path := r.URL.Path
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
		trec := workload.TraceRecord{
			AtNs:      int64(at),
			Method:    r.Method,
			Path:      path,
			Body:      reqBody,
			Status:    status,
			Digest:    cw.digest(),
			Shed:      cs.shed,
			LatencyNs: int64(lat),
		}
		if rh := routeFrom(ctx); rh != nil {
			trec.RouteName = rh.name
		}
		if cw.json {
			trec.ErrCode = workload.ErrCodeFromBody(cw.buf.Bytes())
		}
		if etag := cw.Header().Get("ETag"); len(etag) > 2 && etag[0] == '"' {
			if n, err := strconv.ParseUint(etag[1:len(etag)-1], 10, 64); err == nil {
				trec.Epoch = n
			}
		}
		if err := rec.Record(trec); err != nil {
			logOnce.Do(func() { log.Printf("server: trace capture failed, recording stopped: %v", err) })
		}
	})
}
