package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/workload"
)

// TestCaptureRecordsRequests covers the happy path: reads and
// mutations land in the trace with route names, epochs (from the
// ETag), digests, and replayable POST bodies.
func TestCaptureRecordsRequests(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.trc")
	rec, err := workload.CreateTrace(path, workload.TraceMeta{Objects: db.Len()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, WithTraceRecorder(rec)))
	defer ts.Close()

	get(t, ts.URL+"/v1/objects/clip", 200)
	body := []byte(`{"items":[{"name":"b1","op":"video-edit","input_names":["clip"],"params":{"entries":[{"input":0,"from":1,"to":2}]}}]}`)
	resp, err := http.Post(ts.URL+"/v1/objects:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	get(t, ts.URL+"/v1/objects/missing", 404)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	meta, records, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Objects != 1 {
		t.Errorf("meta objects = %d, want 1", meta.Objects)
	}
	if len(records) != 3 {
		t.Fatalf("got %d records, want 3", len(records))
	}
	obj, batch, miss := records[0], records[1], records[2]
	if obj.RouteName != "object" || obj.Status != 200 || obj.Epoch == 0 || obj.Digest == "" {
		t.Errorf("object record = %+v", obj)
	}
	if batch.RouteName != "batch" || batch.Status != 201 || !bytes.Equal(batch.Body, body) {
		t.Errorf("batch record = %+v", batch)
	}
	if miss.Status != 404 || miss.ErrCode != "not_found" {
		t.Errorf("missing record = %+v", miss)
	}
	for i, r := range records {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
		if r.LatencyNs <= 0 {
			t.Errorf("record %d has no latency", i)
		}
	}
}

// TestCaptureRecordsShedRequests is the middleware-ordering
// regression test: a request rejected by the load-shedding 503 path
// must still appear in the trace — it is part of the workload truth —
// flagged Shed so replay skips it. If
// capture were ever moved inside the limiter, the shed request would
// vanish from the trace and this test fails.
func TestCaptureRecordsShedRequests(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.trc")
	rec, err := workload.CreateTrace(path, workload.TraceMeta{Objects: db.Len()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{})
	srv := New(db,
		WithTraceRecorder(rec),
		WithMaxInFlight(1),
		WithRoute("GET /v1/slow", "slow", func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			w.WriteHeader(http.StatusOK)
		}),
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// The single in-flight slot is held by /v1/slow: this request is
	// shed with 503 + Retry-After before any handler runs.
	resp, err := http.Get(ts.URL + "/v1/objects/clip")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected shed 503, got %d", resp.StatusCode)
	}
	close(release)
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	_, records, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var shed, served int
	for _, r := range records {
		if r.Shed {
			shed++
			if r.Status != http.StatusServiceUnavailable {
				t.Errorf("shed record status = %d, want 503", r.Status)
			}
			if r.ErrCode != CodeOverloaded {
				t.Errorf("shed record code = %q, want %q", r.ErrCode, CodeOverloaded)
			}
			if r.Route() != "shed" {
				t.Errorf("shed record route = %q", r.Route())
			}
		} else {
			served++
		}
	}
	if shed != 1 {
		t.Fatalf("trace has %d shed records, want exactly 1 (capture must sit outside the limiter)", shed)
	}
	if served != 1 {
		t.Fatalf("trace has %d served records, want 1", served)
	}
}

// TestCaptureSurvivesRecorderFailure: a dead trace sink must never
// fail requests — recording stops, serving continues.
func TestCaptureSurvivesRecorderFailure(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "trace")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := workload.NewRecorder(f, workload.TraceMeta{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // writes now fail with os.ErrClosed

	ts := httptest.NewServer(New(db, WithTraceRecorder(rec)))
	defer ts.Close()
	// Enough requests to overflow the recorder's 64 KiB buffer so the
	// failing flush is actually hit, then one more to prove serving
	// still works.
	for i := 0; i < 600; i++ {
		get(t, ts.URL+"/v1/objects/clip", 200)
	}
}
