package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryParams sends an arbitrary query string to /v1/query. Whatever
// it holds, the answer is 200, 400 bad_request, 404 not_found (a
// derived_from naming no object) or 410 version_gone (a pin below the
// version floor or past the head) — never a 5xx, never a panic — and
// its body is exactly one JSON value. /v1/objects is the same parser:
// the same query string sent there answers the same status with a
// byte-identical body.
func FuzzQueryParams(f *testing.F) {
	ts, db := testServer(f)
	// Revise show until retention prunes its chain: a pin below the
	// floor is then one more way to be refused.
	show, _ := db.Lookup("show")
	for i := int64(0); db.CurrentView().VersionFloor() <= 3; i++ {
		if err := db.AddSync(show.ID, 0, 1, i); err != nil {
			f.Fatal(err)
		}
	}
	floor := db.CurrentView().VersionFloor()
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
		// The one pin: both spellings at once, past the head, below the
		// version floor.
		"as_of=2&epoch=2", "as_of=99999", "epoch=99999&count=1",
		fmt.Sprintf("as_of=%d", floor-1), fmt.Sprintf("epoch=%d&kind=video", floor-1),
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
		list := httptest.NewRequest(http.MethodGet, "/v1/objects", nil)
		list.URL.RawQuery = q
		lrec := httptest.NewRecorder()
		h.ServeHTTP(lrec, list)
		if lrec.Code != rec.Code || !bytes.Equal(lrec.Body.Bytes(), body) {
			t.Fatalf("%q: /v1/query answers %d %s, /v1/objects %d %s", q, rec.Code, body, lrec.Code, lrec.Body.Bytes())
		}
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
		want := map[int]string{http.StatusOK: "", http.StatusBadRequest: CodeBadRequest,
			http.StatusNotFound: CodeNotFound, http.StatusGone: CodeVersionGone}
		switch code, ok := want[rec.Code]; {
		case !ok:
			t.Fatalf("%q: status %d: %s", q, rec.Code, body)
		case env.Error.Code != code:
			t.Fatalf("%q: %d with error code %q, want %q: %s", q, rec.Code, env.Error.Code, code, body)
		}
	})
}
