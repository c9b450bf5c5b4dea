package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out json.RawMessage
	dec := json.NewDecoder(resp.Body)
	dec.Decode(&out)
	return resp, out
}

func TestBatchEndpoint(t *testing.T) {
	ts, db := testServer(t)
	body := `{"items": [
		{"name":"act1","op":"video-edit","input_names":["clip"],
		 "params":{"entries":[{"input":0,"from":0,"to":6}]}},
		{"name":"teaser","op":"video-edit","input_names":["act1"],
		 "params":{"entries":[{"input":0,"from":0,"to":2}]}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/objects:batch", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d (%s)", resp.StatusCode, raw)
	}
	var reply batchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.IDs) != 2 || len(reply.Objects) != 2 {
		t.Fatalf("reply = %s", raw)
	}
	if reply.Objects[1].Name != "teaser" {
		t.Errorf("objects[1] = %+v", reply.Objects[1])
	}
	obj, err := db.Lookup("teaser")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Expand(obj.ID)
	if err != nil || len(v.Video) != 2 {
		t.Fatalf("expand teaser: %v", err)
	}
}

func TestBatchEndpointAtomicFailure(t *testing.T) {
	ts, db := testServer(t)
	before := db.Len()
	body := `{"items": [
		{"name":"ok","op":"video-edit","input_names":["clip"],
		 "params":{"entries":[{"input":0,"from":0,"to":4}]}},
		{"name":"broken","op":"video-edit","input_names":["missing"],
		 "params":{"entries":[{"input":0,"from":0,"to":1}]}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/objects:batch", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d (%s)", resp.StatusCode, raw)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeNotFound || !strings.Contains(env.Error.Message, "broken") {
		t.Errorf("envelope = %+v", env.Error)
	}
	if db.Len() != before {
		t.Errorf("len = %d, want %d (batch leaked)", db.Len(), before)
	}
}

func TestBatchEndpointRejectsJunk(t *testing.T) {
	ts, _ := testServer(t)
	for _, body := range []string{
		``, `{}`, `{"items":[]}`, `{"items":[{"nmae":"typo"}]}`, `not json`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/objects:batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d (%s)", body, resp.StatusCode, raw)
		}
	}
}

// TestBatchRefusalsPinned: the batch route refuses a body over
// maxBatchBody, a batch of maxBatchItems+1 items and an empty batch
// with 400 bad_request before it reads an item, and creates nothing.
func TestBatchRefusalsPinned(t *testing.T) {
	ts, db := testServer(t)
	before := db.Len()
	item := `{"name":"x","op":"video-edit","input_names":["clip"],"params":{"entries":[{"input":0,"from":0,"to":1}]}}`
	for name, body := range map[string]string{
		"over maxBatchBody":     `{"items":[{"name":"` + strings.Repeat("x", maxBatchBody) + `"}]}`,
		"maxBatchItems+1 items": `{"items":[` + strings.Repeat(item+",", maxBatchItems) + item + `]}`,
		"empty":                 `{"items":[]}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/objects:batch", body)
		var env errorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d, body %.200s; want 400 %s", name, resp.StatusCode, raw, CodeBadRequest)
		}
	}
	if db.Len() != before {
		t.Errorf("len = %d, want %d", db.Len(), before)
	}
}
