package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// malformedBatches are batch bodies whose one item fails validation on
// its own terms (catalog.ErrInvalid).
var malformedBatches = map[string]string{
	"unknown operator": `{"items":[{"name":"x","op":"nope","inputs":[1]}]}`,
	"neither shape":    `{"items":[{"name":""}]}`,
	"unnamed binding":  `{"items":[{"blob":1,"track":"video"}]}`,
	"too few inputs":   `{"items":[{"name":"y","op":"video-transition","input_names":["clip"]}]}`,
	"wrong input kind": `{"items":[{"name":"z","op":"video-edit","input_names":["song"],"params":{"entries":[{"input":0,"from":0,"to":1}]}}]}`,
}

// TestBatchMalformedItemIsBadRequest: an item that fails validation on
// its own terms answers 400 bad_request, not 500 internal, and creates
// nothing.
func TestBatchMalformedItemIsBadRequest(t *testing.T) {
	ts, db := testServer(t)
	before := db.Len()
	for name, body := range malformedBatches {
		resp, raw := postJSON(t, ts.URL+"/v1/objects:batch", body)
		var env errorEnvelope
		json.Unmarshal(raw, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: %d %q, want 400 %q: %s", name, resp.StatusCode, env.Error.Code, CodeBadRequest, raw)
		}
	}
	if db.Len() != before {
		t.Errorf("malformed batches created %d objects", db.Len()-before)
	}
}

// FuzzBatchBody posts an arbitrary body to /v1/objects:batch. Whatever
// it holds, the answer is 201, a 4xx under the code the route documents
// for it — 400 bad_request (or no_interp, not_media for an item naming
// a BLOB or input it cannot use), 404 not_found or no_track, 409
// duplicate_name — never a 5xx, never a panic, and its body is exactly
// one JSON value.
func FuzzBatchBody(f *testing.F) {
	ts, _ := testServer(f)
	for _, body := range malformedBatches {
		f.Add(body)
	}
	for _, body := range []string{
		`{"items":[{"name":"cut","op":"video-edit","input_names":["clip"],"params":{"entries":[{"input":0,"from":0,"to":4}]}}]}`,
		`{"items":[{"name":"a","op":"video-edit","input_names":["clip"],"params":{"entries":[{"input":0,"from":0,"to":6}]}},
			{"name":"b","op":"video-edit","input_names":["a"],"params":{"entries":[{"input":0,"from":1,"to":2}]}}]}`,
		`{"items":[{"name":"again","blob":1,"track":"video","attrs":{"k":"v"}}]}`,
		`{"items":[]}`, `{}`, `[]`, `null`, `{"items":[{"name":"c","op":"video-edit","inputs":[1,1]}]}`,
	} {
		f.Add(body)
	}
	h := ts.Config.Handler
	want := map[int][]string{
		http.StatusBadRequest: {CodeBadRequest, CodeNoInterp, CodeNotMedia},
		http.StatusNotFound:   {CodeNotFound, CodeNoTrack},
		http.StatusConflict:   {CodeDupName},
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/objects:batch", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(out))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%q: %d with a body that is no JSON value (%v): %s", body, rec.Code, err, out)
		}
		if err := dec.Decode(&v); err != io.EOF {
			t.Fatalf("%q: %d with a body of more than one JSON value: %s", body, rec.Code, out)
		}
		if rec.Code == http.StatusCreated {
			return
		}
		var env errorEnvelope
		json.Unmarshal(out, &env)
		for _, code := range want[rec.Code] {
			if env.Error.Code == code {
				return
			}
		}
		t.Fatalf("%q: status %d, code %q: %s", body, rec.Code, env.Error.Code, out)
	})
}
