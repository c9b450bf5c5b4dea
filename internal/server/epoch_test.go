package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"timedmedia/internal/core"
)

// getWithHeaders is get plus the response headers.
func getWithHeaders(t *testing.T, url string, hdr map[string]string, wantCode int) ([]byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, body, wantCode)
	}
	return body, resp.Header
}

// TestETagAndNotModified: every read response carries the epoch as a
// strong ETag; If-None-Match with the current tag answers 304, and a
// commit invalidates the tag.
func TestETagAndNotModified(t *testing.T) {
	ts, db := testServer(t)

	_, hdr := getWithHeaders(t, ts.URL+"/v1/objects", nil, 200)
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("list response has no ETag")
	}

	// Same tag on every read route — they resolve the same epoch.
	for _, path := range []string{"/v1/query", "/v1/objects/clip", "/v1/objects/clip/element/0", "/v1/objects/clip/stream"} {
		if _, h := getWithHeaders(t, ts.URL+path, nil, 200); h.Get("ETag") != etag {
			t.Errorf("GET %s ETag = %q, want %q", path, h.Get("ETag"), etag)
		}
	}

	// If-None-Match with the current tag: 304, empty body.
	body, _ := getWithHeaders(t, ts.URL+"/v1/objects", map[string]string{"If-None-Match": etag}, 304)
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}
	// Weak-compare and wildcard forms match too.
	getWithHeaders(t, ts.URL+"/v1/objects", map[string]string{"If-None-Match": "W/" + etag}, 304)
	getWithHeaders(t, ts.URL+"/v1/objects", map[string]string{"If-None-Match": `"0", ` + etag}, 304)
	getWithHeaders(t, ts.URL+"/v1/objects", map[string]string{"If-None-Match": "*"}, 304)

	// A commit publishes a new epoch: the old tag no longer matches.
	clip, _ := db.Lookup("clip")
	if _, err := db.SelectDuration(clip.ID, "cut9", 0, 5); err != nil {
		t.Fatal(err)
	}
	body, hdr = getWithHeaders(t, ts.URL+"/v1/objects", map[string]string{"If-None-Match": etag}, 200)
	if hdr.Get("ETag") == etag {
		t.Error("ETag unchanged across a commit")
	}
	if len(body) == 0 {
		t.Error("stale If-None-Match must get a full body")
	}
}

// TestEpochPinnedPagination is the regression test for pagination
// racing writers: with an epoch= pin, a page and its total are
// computed against the pinned epoch, so a commit between pages can
// change neither.
func TestEpochPinnedPagination(t *testing.T) {
	ts, db := testServer(t) // clip, song, show (IDs ascending)

	var page1 listReply
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects?limit=2", 200), &page1); err != nil {
		t.Fatal(err)
	}
	if page1.Total != 3 || len(page1.Objects) != 2 || page1.NextOffset == nil || *page1.NextOffset != 2 {
		t.Fatalf("page1 = %+v", page1)
	}
	pin := "&epoch=" + jsonUint(t, page1.Epoch)

	// Writers commit between the pages: one cut that stays, then more
	// epochs than any bounded ring of recent views would hold.
	clip, _ := db.Lookup("clip")
	if _, err := db.SelectDuration(clip.ID, "latecomer", 0, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id, err := db.SelectDuration(clip.ID, "churn", 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	// Pinned page 2: still sees 3 objects total, exactly the one
	// object that followed page 1 in the pinned epoch, and no further
	// page.
	var page2 listReply
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects?limit=2&offset=2"+pin, 200), &page2); err != nil {
		t.Fatal(err)
	}
	if page2.Total != 3 || page2.Epoch != page1.Epoch || page2.NextOffset != nil {
		t.Errorf("pinned page2 = %+v", page2)
	}
	if len(page2.Objects) != 1 || page2.Objects[0].Name != "show" {
		t.Errorf("pinned page2 objects = %+v", page2.Objects)
	}

	// Unpinned page 2 sees the new epoch: 4 total.
	var fresh listReply
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects?limit=2&offset=2", 200), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Total != 4 || fresh.Epoch <= page1.Epoch {
		t.Errorf("unpinned page2 = total %d epoch %d", fresh.Total, fresh.Epoch)
	}

	// The pin works on /v1/query too, including count.
	var count struct {
		Count int    `json:"count"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/query?count=1"+pin, 200), &count); err != nil {
		t.Fatal(err)
	}
	if count.Count != 3 || count.Epoch != page1.Epoch {
		t.Errorf("pinned count = %+v", count)
	}
}

func jsonUint(t *testing.T, n uint64) string {
	t.Helper()
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEpochPinErrors: an unparsable epoch is 400; a future epoch is
// 410 epoch_gone; an old epoch is served from the version chains until
// retention raises the version floor past it, and then it is 410
// version_gone.
func TestEpochPinErrors(t *testing.T) {
	ts, db := testServer(t)

	body := get(t, ts.URL+"/v1/objects?epoch=x", 400)
	var env errorEnvelope
	json.Unmarshal(body, &env)
	if env.Error.Code != CodeBadRequest {
		t.Errorf("bad epoch code = %q", env.Error.Code)
	}

	// Future epoch: never published.
	body, _ = getWithHeaders(t, ts.URL+"/v1/objects?epoch=999999", nil, 410)
	env = errorEnvelope{}
	json.Unmarshal(body, &env)
	if env.Error.Code != CodeEpochGone {
		t.Errorf("future epoch code = %q", env.Error.Code)
	}

	// An old epoch: pin the current one, then publish a hundred more.
	// The pin still reads its own three objects, under its own ETag.
	cur := db.CurrentView().Epoch()
	clip, _ := db.Lookup("clip")
	for db.CurrentView().Epoch() < cur+100 {
		id, err := db.SelectDuration(clip.ID, "churn", 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var old listReply
	body, hdr := getWithHeaders(t, ts.URL+"/v1/objects?epoch="+jsonUint(t, cur), nil, 200)
	if err := json.Unmarshal(body, &old); err != nil || old.Total != 3 || old.Epoch != cur || hdr.Get("ETag") != `"`+jsonUint(t, cur)+`"` {
		t.Errorf("old epoch %d: %s (%v), ETag %s", cur, body, err, hdr.Get("ETag"))
	}

	// Below the version floor: revise show until retention prunes its
	// chain past the pin.
	show, _ := db.Lookup("show")
	for i := int64(0); db.CurrentView().VersionFloor() <= cur; i++ {
		if err := db.AddSync(show.ID, 0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	body, _ = getWithHeaders(t, ts.URL+"/v1/objects?epoch="+jsonUint(t, cur), nil, 410)
	env = errorEnvelope{}
	json.Unmarshal(body, &env)
	if env.Error.Code != CodeVersionGone {
		t.Errorf("epoch below the version floor: code %q", env.Error.Code)
	}
	floor := db.CurrentView().VersionFloor()
	getWithHeaders(t, ts.URL+"/v1/objects?epoch="+jsonUint(t, floor), nil, 200)
}

// TestEpochPinResolvesGraphRoutes: expand, timeline and lineage run
// wholly against the pinned view — the object and everything it
// derives from or composes — so objects deleted since the pin still
// answer under the pinned ETag.
func TestEpochPinResolvesGraphRoutes(t *testing.T) {
	ts, db := testServer(t) // clip, song, show = clip + song
	clip, _ := db.Lookup("clip")
	cut, err := db.SelectDuration(clip.ID, "cut", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, hdr := getWithHeaders(t, ts.URL+"/v1/objects", nil, 200)
	etag := hdr.Get("ETag")
	pin := "?epoch=" + etag[1:len(etag)-1]
	show, _ := db.Lookup("show")
	for _, id := range []core.ID{show.ID, cut} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	for _, path := range []string{"/v1/objects/cut/expand", "/v1/objects/show/timeline", "/v1/objects/cut/lineage"} {
		body, h := getWithHeaders(t, ts.URL+path+pin, nil, 200)
		if h.Get("ETag") != etag {
			t.Errorf("GET %s%s ETag = %q, want %q", path, pin, h.Get("ETag"), etag)
		}
		if path == "/v1/objects/cut/expand" {
			var out expandSummary
			if err := json.Unmarshal(body, &out); err != nil || out.Elements != 5 {
				t.Errorf("pinned expand = %s (%v), want 5 elements", body, err)
			}
		}
		get(t, ts.URL+path, 404) // the current view has neither
	}
}

// TestAtAliasSharedShape: /at/{tick}?format=json returns the shared
// objectSummary envelope, agreeing with the default payload response
// and with the /v1/query?live_at= planner path it aliases.
func TestAtAliasSharedShape(t *testing.T) {
	ts, _ := testServer(t) // clip: 10 video frames at 25 fps

	// Default shape: raw payload + X-Element-Index (the pre-epoch
	// contract).
	_, hdr := getWithHeaders(t, ts.URL+"/v1/objects/clip/at/5", nil, 200)
	if got := hdr.Get("X-Element-Index"); got != "5" {
		t.Errorf("X-Element-Index = %q", got)
	}
	if got := hdr.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type = %q", got)
	}

	// JSON shape: the same resolution in the shared envelope.
	var at atReply
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects/clip/at/5?format=json", 200), &at); err != nil {
		t.Fatal(err)
	}
	// Tick 5 at 25 fps is the instant 0.2 s — the documented mapping
	// seconds = TimeSystem.Seconds(tick).
	if at.Object.Name != "clip" || at.Element != 5 || at.Tick != 5 || at.Seconds != 0.2 {
		t.Errorf("at reply = %+v", at)
	}

	// The alias and the planner path agree: clip is live at the mapped
	// instant…
	var q listReply
	if err := json.Unmarshal(get(t, ts.URL+"/v1/query?live_at=0.2&name_contains=clip", 200), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Objects) != 1 || q.Objects[0].Name != "clip" {
		t.Errorf("live_at=0.2 query = %+v", q.Objects)
	}
	// …and both say no at an instant past the clip's extent.
	get(t, ts.URL+"/v1/objects/clip/at/999999", 404)
	if err := json.Unmarshal(get(t, ts.URL+"/v1/query?live_at=999999&name_contains=clip", 200), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Objects) != 0 {
		t.Errorf("live_at past end matched %+v", q.Objects)
	}
}
