package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/fixtures"
)

// TestMetricsContentNegotiation covers both /metrics formats: the
// default Prometheus text exposition and the JSON shape under
// Accept: application/json.
func TestMetricsContentNegotiation(t *testing.T) {
	ts, db := testServer(t)
	// Generate one request so the route histograms have samples.
	get(t, ts.URL+"/v1/objects", 200)
	// A checkpoint with no journal attached goes full, and says why.
	if err := db.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	t.Run("prometheus-default", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Content-Type = %q", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		out := string(body)
		// Every endpoint and every stage has a series, observed or not.
		for _, route := range []string{"list", "object", "element", "at", "stream", "expand", "timeline", "lineage", "cut", "trace", "metrics", "healthz"} {
			want := fmt.Sprintf(`tbm_http_request_duration_seconds_count{route=%q}`, route)
			if !strings.Contains(out, want) {
				t.Errorf("missing %s", want)
			}
		}
		for _, stage := range []string{"lookup", "expand", "decode", "payload", "journal_append", "expcache_fill", "wal_fsync", "blob_read", "asof_resolve"} {
			want := fmt.Sprintf(`tbm_stage_duration_seconds_count{stage=%q}`, stage)
			if !strings.Contains(out, want) {
				t.Errorf("missing %s", want)
			}
		}
		for _, want := range []string{
			"# TYPE tbm_http_request_duration_seconds histogram",
			"tbm_expcache_hits_total",
			"tbm_journal_appends_total",
			"tbm_recovery_journal_records_replayed",
			"tbm_recovery_open_ms",
			"tbm_recovery_blobs_swept 0",
			"tbm_recovery_used_backup 0",
			"tbm_recovery_checkpoint_chain_broken 0",
			"tbm_recovery_manifest_corrupt 0",
			`tbm_checkpoint_bytes_total{mode="full"}`,
			`tbm_checkpoint_bytes_total{mode="incremental"}`,
			`tbm_checkpoint_promotions_total{reason="no_journal"} 1`,
			`tbm_checkpoint_promotions_total{reason="no_base"} 0`,
			`tbm_checkpoint_promotions_total{reason="chain_bound"} 0`,
			"tbm_checkpoint_chain_files 0", // that checkpoint started no chain the catalog stands on
			"tbm_http_load_shed_total",
			"tbm_objects 3",
			"tbm_version_chains 3",
			"tbm_version_floor 0",
			"tbm_version_gone_total 0",
			"# TYPE tbm_go_goroutines gauge",
			"# TYPE tbm_go_heap_bytes gauge",
			"# TYPE tbm_go_gc_cycles_total counter",
			"# TYPE tbm_go_gc_pause_cpu_seconds_total counter",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q", want)
			}
		}
		// Basic format sanity: every non-comment line is "name value".
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if fields := strings.Fields(line); len(fields) != 2 {
				t.Errorf("malformed line %q", line)
			}
		}
	})

	t.Run("json-on-accept", func(t *testing.T) {
		var m struct {
			Objects   int `json:"objects"`
			Lifecycle struct {
				StreamsTruncated *int64 `json:"streams_truncated"`
			} `json:"lifecycle"`
			Recovery struct {
				OpenMs *int64 `json:"open_ms"`
			} `json:"recovery"`
			Checkpoints struct {
				FullBytes        *int64 `json:"full_bytes"`
				IncrementalBytes *int64 `json:"incremental_bytes"`
			} `json:"checkpoints"`
		}
		if err := json.Unmarshal(metricsJSON(t, ts.URL), &m); err != nil {
			t.Fatal(err)
		}
		if m.Objects != 3 {
			t.Errorf("objects = %d", m.Objects)
		}
		if m.Lifecycle.StreamsTruncated == nil {
			t.Error("new counters missing from JSON shape")
		}
		if m.Recovery.OpenMs == nil || m.Checkpoints.FullBytes == nil || m.Checkpoints.IncrementalBytes == nil {
			t.Error("open time or checkpoint bytes missing from JSON shape")
		}
	})
}

// TestRequestIDHeader asserts every response carries X-Request-ID —
// success, error, and even unrouted paths — and that IDs differ.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := testServer(t)
	seen := map[string]bool{}
	for _, path := range []string{"/v1/objects", "/v1/objects/ghost", "/nope", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rid := resp.Header.Get("X-Request-ID")
		if rid == "" {
			t.Errorf("GET %s: no X-Request-ID", path)
		}
		if seen[rid] {
			t.Errorf("GET %s: duplicate request ID %q", path, rid)
		}
		seen[rid] = true
	}
}

// TestErrorEnvelope drives each sentinel error through its HTTP route
// and checks the envelope code and status.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		path   string
		method string
		status int
		code   string
	}{
		{"/v1/objects/ghost", "GET", 404, "not_found"},             // catalog.ErrNotFound
		{"/v1/objects/clip/element/99", "GET", 404, "no_element"},  // interp.ErrNoElement
		{"/v1/objects/clip/at/999999", "GET", 404, "no_element"},   // no element at tick
		{"/v1/objects/show/expand", "GET", 400, "cannot_expand"},   // catalog.ErrCannotExpand
		{"/v1/objects/show/element/0", "GET", 400, "not_media"},    // catalog.ErrNotMedia
		{"/v1/objects/clip/timeline", "GET", 400, "not_composite"}, // catalog.ErrNotComposite
		{"/v1/objects/clip/element/x", "GET", 400, "bad_request"},  // unparsable index
		{"/v1/objects/clip/cut?out=&from=0&to=1", "POST", 400, "bad_request"},
		{"/v1/objects/clip/cut?out=song&from=0&to=1", "POST", 409, "duplicate_name"}, // catalog.ErrDupName
		{"/v1/objects?limit=-1", "GET", 400, "bad_request"},
		{"/v1/objects?offset=x", "GET", 400, "bad_request"},
		// No route: the pre-/v1 paths, an unknown path, a method no route takes.
		{"/objects", "GET", 404, "not_found"},
		{"/objects/clip", "GET", 404, "not_found"},
		{"/nope", "GET", 404, "not_found"},
		{"/v1/objects/clip", "DELETE", 404, "not_found"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s = %d (%s), want %d", c.method, c.path, resp.StatusCode, body, c.status)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s %s: not an envelope: %s", c.method, c.path, body)
			continue
		}
		if env.Error.Code != c.code {
			t.Errorf("%s %s code = %q, want %q", c.method, c.path, env.Error.Code, c.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty message", c.method, c.path)
		}
	}
}

// TestListPagination covers the paginated /v1 list shape and its
// bounds: normal pages, offset past the end, limit 0, and the
// repeated-attr filter fix.
func TestListPagination(t *testing.T) {
	ts, _ := testServer(t) // clip, song, show (IDs ascending)

	page := func(t *testing.T, query string) (objs []map[string]any, total int, next *int) {
		t.Helper()
		var reply struct {
			Objects    []map[string]any `json:"objects"`
			Total      int              `json:"total"`
			NextOffset *int             `json:"next_offset"`
		}
		if err := json.Unmarshal(get(t, ts.URL+"/v1/objects"+query, 200), &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Objects, reply.Total, reply.NextOffset
	}

	// Unpaginated /v1: everything, no next_offset.
	objs, total, next := page(t, "")
	if len(objs) != 3 || total != 3 || next != nil {
		t.Errorf("full list: len=%d total=%d next=%v", len(objs), total, next)
	}

	// First page of 2: next_offset points at the remainder.
	objs, total, next = page(t, "?limit=2")
	if len(objs) != 2 || total != 3 || next == nil || *next != 2 {
		t.Errorf("limit=2: len=%d total=%d next=%v", len(objs), total, next)
	}
	if objs[0]["name"] != "clip" || objs[1]["name"] != "song" {
		t.Errorf("page order: %v, %v", objs[0]["name"], objs[1]["name"])
	}

	// Second page: the tail, no next_offset.
	objs, _, next = page(t, "?limit=2&offset=2")
	if len(objs) != 1 || objs[0]["name"] != "show" || next != nil {
		t.Errorf("second page: len=%d next=%v", len(objs), next)
	}

	// Offset past the end: empty page, total intact.
	objs, total, next = page(t, "?offset=99")
	if len(objs) != 0 || total != 3 || next != nil {
		t.Errorf("offset past end: len=%d total=%d next=%v", len(objs), total, next)
	}

	// limit=0: an empty page that still reports the total, and links no
	// next page — following it would fetch the same page forever — on
	// either list route.
	for _, q := range []string{"?limit=0", "?limit=0&offset=1"} {
		objs, total, next = page(t, q)
		if len(objs) != 0 || total != 3 || next != nil {
			t.Errorf("/v1/objects%s: len=%d total=%d next=%v", q, len(objs), total, next)
		}
		if r := runQuery(t, ts.URL, q[1:]); len(r.Objects) != 0 || r.Total != 3 || r.NextOffset != nil {
			t.Errorf("/v1/query%s: len=%d total=%d next=%v", q, len(r.Objects), r.Total, r.NextOffset)
		}
	}

	// Repeated attr values: attr.language=en OR fr must match clip
	// (language=en), not just the first value.
	objs, _, _ = page(t, "?attr.language=fr&attr.language=en")
	if len(objs) != 1 || objs[0]["name"] != "clip" {
		t.Errorf("repeated attr filter: %v", objs)
	}
}

// TestDebugTrace checks that request traces land in the ring with
// route, status and spans.
func TestDebugTrace(t *testing.T) {
	ts, _ := testServer(t)
	get(t, ts.URL+"/v1/objects/clip/expand", 200)

	var reply struct {
		Traces []struct {
			RequestID string `json:"request_id"`
			Route     string `json:"route"`
			Status    int    `json:"status"`
			Spans     []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/debug/trace", 200), &reply); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tr := range reply.Traces {
		if tr.Route != "expand" {
			continue
		}
		found = true
		if tr.RequestID == "" || tr.Status != 200 {
			t.Errorf("trace = %+v", tr)
		}
		spans := map[string]bool{}
		for _, sp := range tr.Spans {
			spans[sp.Name] = true
		}
		// First expansion of clip: lookup, expand and the decode
		// inside the cache miss.
		for _, want := range []string{"lookup", "expand", "decode"} {
			if !spans[want] {
				t.Errorf("expand trace missing span %q (have %v)", want, spans)
			}
		}
	}
	if !found {
		t.Fatal("no trace recorded for the expand request")
	}
}

// TestStreamTruncationTrailer injects a payload fault mid-stream and
// asserts the truncation is visible: X-Stream-Error trailer set,
// lifecycle counter bumped. A clean stream carries no trailer value.
func TestStreamTruncationTrailer(t *testing.T) {
	inj := faultfs.NewInjector()
	db := catalog.New(faultfs.Wrap(blob.NewMemStore(), inj))
	if _, err := db.Ingest("clip", fixtures.Video(6, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Clean stream first: no trailer.
	resp, err := http.Get(ts.URL + "/v1/objects/clip/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v := resp.Trailer.Get("X-Stream-Error"); v != "" {
		t.Fatalf("clean stream has trailer %q", v)
	}

	// Fail the 3rd element read of the next stream (element reads
	// before this point — ingest, the clean stream — are skipped via
	// the live count).
	inj.Add(faultfs.Rule{Op: "readspan", Nth: inj.Count("readspan") + 3})
	resp, err = http.Get(ts.URL + "/v1/objects/clip/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	trailer := resp.Trailer.Get("X-Stream-Error")
	if trailer == "" {
		t.Fatal("truncated stream carries no X-Stream-Error trailer")
	}
	if !strings.Contains(trailer, "injected fault") {
		t.Errorf("trailer = %q", trailer)
	}
	if len(body) == 0 {
		t.Error("expected a partial body before the truncation")
	}
	if got := srv.stats.snapshot().StreamsTruncated; got != 1 {
		t.Errorf("streams_truncated = %d, want 1", got)
	}
}
