package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryParams sends an arbitrary query string to /v1/query. Whatever
// it holds, the answer is 200, 400 bad_request, 404 not_found (a
// derived_from naming no object) or 410 (an as_of or epoch no longer
// retained) — never a 5xx, never a panic — and its body is exactly one
// JSON value.
func FuzzQueryParams(f *testing.F) {
	ts, _ := testServer(f)
	for _, q := range []string{
		// TestQueryEndpointBadRequests' cases.
		"kind=hologram", "class=imaginary", "live_at=noon", "live_at=NaN",
		"overlaps=NaN,1", "overlaps=NaN,NaN", "min_duration=NaN", "max_duration=NaN",
		"overlaps=5", "overlaps=5,2", "overlaps=a,b", "min_duration=x", "max_duration=x",
		"sort=rating", "limit=-3", "limit=x", "offset=-1",
		"overlaps=-Inf,Inf", "derived_from=ghost",
		// Well-formed queries over the fixture.
		"", "kind=video&sort=name&limit=1", "attr.language=en&count=1",
		"live_at=0.1&as_of=2", "epoch=1", "name_contains=o&offset=2",
	} {
		f.Add(q)
	}
	h := ts.Config.Handler
	f.Fuzz(func(t *testing.T, q string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
		req.URL.RawQuery = q
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(body))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%q: %d with a body that is no JSON value (%v): %s", q, rec.Code, err, body)
		}
		if err := dec.Decode(&v); err != io.EOF {
			t.Fatalf("%q: %d with a body of more than one JSON value: %s", q, rec.Code, body)
		}
		var env errorEnvelope
		json.Unmarshal(body, &env)
		want := map[int]string{http.StatusOK: "", http.StatusBadRequest: CodeBadRequest, http.StatusNotFound: CodeNotFound}
		switch code, ok := want[rec.Code]; {
		case ok && env.Error.Code != code:
			t.Fatalf("%q: %d with error code %q, want %q: %s", q, rec.Code, env.Error.Code, code, body)
		case !ok && rec.Code != http.StatusGone:
			t.Fatalf("%q: status %d: %s", q, rec.Code, body)
		}
	})
}
