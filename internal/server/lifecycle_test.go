package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/media"
)

// TestRecoverMiddleware: a handler panic becomes a 500 and a counter
// increment; the process stays up.
func TestRecoverMiddleware(t *testing.T) {
	var stats lifecycleStats
	h := recoverMiddleware(&stats, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code = %d", rec.Code)
	}
	if stats.snapshot().PanicsRecovered != 1 {
		t.Errorf("panics = %d", stats.snapshot().PanicsRecovered)
	}
	// And an un-panicked request passes through untouched.
	rec2 := httptest.NewRecorder()
	recoverMiddleware(&stats, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})).ServeHTTP(rec2, httptest.NewRequest("GET", "/x", nil))
	if rec2.Code != http.StatusTeapot {
		t.Errorf("passthrough code = %d", rec2.Code)
	}
}

// TestFaultLimiterSheds: at capacity the limiter answers 503 with a
// Retry-After hint instead of queueing.
func TestFaultLimiterSheds(t *testing.T) {
	var stats lifecycleStats
	release := make(chan struct{})
	entered := make(chan struct{})
	slots := make(chan struct{}, 1)
	h := limitMiddleware(&stats, slots, 7*time.Second, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		entered <- struct{}{}
		<-release
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
	}()
	<-entered // the slot is now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/shed", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("code = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q", got)
	}
	if stats.snapshot().LoadShed != 1 {
		t.Errorf("shed = %d", stats.snapshot().LoadShed)
	}
	close(release)
	wg.Wait()
	if got := stats.snapshot().InFlight; got != 0 {
		t.Errorf("in-flight after drain = %d", got)
	}

	// A nil slots channel disables the limiter entirely.
	if got := limitMiddleware(&stats, nil, time.Second, http.NotFoundHandler()); got == nil {
		t.Fatal("nil limiter")
	}
}

// TestTimeoutMiddleware: handlers observe the configured deadline via
// the request context; d <= 0 leaves the context alone.
func TestTimeoutMiddleware(t *testing.T) {
	var sawDeadline bool
	h := timeoutMiddleware(time.Minute, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if !sawDeadline {
		t.Error("no deadline on request context")
	}

	h0 := timeoutMiddleware(0, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
	}))
	h0.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if sawDeadline {
		t.Error("deadline attached despite d=0")
	}
}

// TestFaultShedVisibleInMetrics drives the full server at max-inflight
// 1 and checks the shed shows up in /metrics.
func TestFaultShedVisibleInMetrics(t *testing.T) {
	srv := New(fixtures.NewMemDB(), WithMaxInFlight(1), WithRequestTimeout(time.Minute))
	// Hold the only slot with a request that says when it is inside the
	// limiter and stays there until released.
	entered, release := make(chan struct{}), make(chan struct{})
	srv.route("GET /v1/debug/hold", "hold", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	held := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/debug/hold")
		if err == nil {
			resp.Body.Close()
		}
		held <- err
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	close(release)
	if err := <-held; err != nil {
		t.Errorf("holding request: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz with the only slot held = %d, want 503", resp.StatusCode)
	}
	if got := srv.stats.snapshot().LoadShed; got < 1 {
		t.Errorf("load_shed = %d", got)
	}
	if !strings.Contains(string(get(t, ts.URL+"/metrics", 200)), "tbm_http_load_shed_total 1\n") {
		t.Error("the shed is not in /metrics")
	}
}

// TestCrashCutSurvivesRestart is the acceptance scenario end to end
// over HTTP: POST /cut, then "kill -9" (abandon everything without
// Save), restart, and the derivation is there.
func TestCrashCutSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 9), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))

	resp, err := http.Post(ts.URL+"/v1/objects/clip/cut?out=webcut&from=2&to=6", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cut status = %d", resp.StatusCode)
	}
	ts.Close()
	// Crash: no Save, no CloseJournal. The journal append that backed
	// the 201 response was fsynced before it was sent. The restart opens
	// a copy of the files as the crash left them: the abandoned catalog
	// still holds the directory lock a dead process would have lost.
	dir = copyDir(t, dir)

	fs2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := catalog.Open(dir, fs2)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db2.Lookup("webcut")
	if err != nil {
		t.Fatalf("webcut after restart: %v", err)
	}
	if uint64(obj.ID) != created.ID {
		t.Errorf("id = %d, want %d", obj.ID, created.ID)
	}
	v, err := db2.Expand(obj.ID)
	if err != nil || len(v.Video) != 4 {
		t.Fatalf("expand after restart: %v (frames=%d)", err, len(v.Video))
	}

	// The restarted server reports the recovery in /metrics.
	ts2 := httptest.NewServer(New(db2))
	defer ts2.Close()
	var m struct {
		Recovery struct {
			JournalRecords int `json:"journal_records_replayed"`
		} `json:"recovery"`
	}
	mreq, err := http.NewRequest("GET", ts2.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mreq.Header.Set("Accept", "application/json")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Recovery.JournalRecords < 1 {
		t.Errorf("journal_records_replayed = %d", m.Recovery.JournalRecords)
	}
}

// TestStreamStopsOnDeadline: a stream whose deadline expires truncates
// instead of running to completion.
func TestStreamStopsOnDeadline(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(50, 32, 24, 2), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	// 1ns deadline: expired before the handler runs.
	ts := httptest.NewServer(New(db, WithRequestTimeout(time.Nanosecond)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/objects/clip/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	tsFull := httptest.NewServer(New(db))
	defer tsFull.Close()
	full := get(t, tsFull.URL+"/v1/objects/clip/stream", 200)
	if len(body) >= len(full) {
		t.Errorf("deadline-limited stream = %d bytes, full = %d", len(body), len(full))
	}
}

// smallBufferListener gives every accepted connection a small kernel
// send buffer, so a client that stops reading blocks the server's
// writes after kilobytes, not after the megabytes loopback autotuning
// allows.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// rawClipDB holds one raw-RGB clip, "clip": 40 frames of 57,600 bytes.
func rawClipDB(t *testing.T) *catalog.DB {
	t.Helper()
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(40, 160, 120, 3), catalog.IngestOptions{VideoEncoding: media.EncodingRawRGB}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStreamStalledReaderReleased: a client that requests a stream and
// never reads holds the handler, and the server's one in-flight slot,
// until the request's deadline and at most a second more — not for as
// long as it keeps the connection open.
func TestStreamStalledReaderReleased(t *testing.T) {
	const timeout = 200 * time.Millisecond
	srv := New(rawClipDB(t), WithRequestTimeout(timeout), WithMaxInFlight(1))
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener = smallBufferListener{ts.Listener}
	ts.Start()
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // runs before ts.Close, which waits for the handler
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := io.WriteString(conn, "GET /v1/objects/clip/stream HTTP/1.1\r\nHost: tbm\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for srv.stats.inFlight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	for srv.stats.inFlight.Load() != 0 {
		if time.Since(start) > timeout+time.Second {
			t.Fatalf("the handler of a stream nobody reads still runs %v after it started", time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
	get(t, ts.URL+"/healthz", http.StatusOK) // the slot is free again
}

// TestStreamKeepAliveAfterDeadline: the write deadline a stream sets
// ends with the stream. Two streams in a row, and then a point read
// after the second stream's deadline has passed, all complete on one
// keep-alive connection.
func TestStreamKeepAliveAfterDeadline(t *testing.T) {
	const timeout = time.Second
	ts := httptest.NewServer(New(rawClipDB(t), WithRequestTimeout(timeout)))
	defer ts.Close()
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) { reused = append(reused, i.Reused) }}
	do := func(path string) []byte {
		t.Helper()
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Stream-Error") != "" {
			t.Fatalf("GET %s = %d, %d bytes, %v, trailer %q", path, resp.StatusCode, len(body), err, resp.Trailer.Get("X-Stream-Error"))
		}
		return body
	}
	first, second := do("/v1/objects/clip/stream"), do("/v1/objects/clip/stream")
	if len(first) < 40*57600 || !bytes.Equal(first, second) {
		t.Errorf("streams of %d and %d bytes, want the same 40 frames twice", len(first), len(second))
	}
	time.Sleep(timeout + 100*time.Millisecond)
	do("/v1/objects/clip")
	if !slices.Equal(reused, []bool{false, true, true}) {
		t.Errorf("connection reused %v, want one keep-alive connection throughout", reused)
	}
}
