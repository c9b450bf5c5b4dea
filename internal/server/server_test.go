package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/timebase"
)

func testServer(t testing.TB) (*httptest.Server, *catalog.DB) {
	t.Helper()
	db := fixtures.NewMemDB()
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 1),
		catalog.IngestOptions{Attrs: map[string]string{"language": "en"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("song", fixtures.Tone(0.2, 440), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	clip, _ := db.Lookup("clip")
	song, _ := db.Lookup("song")
	if _, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{
		{Object: clip.ID, Start: 0}, {Object: song.ID, Start: 100},
	}, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	return ts, db
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", url, resp.StatusCode, body, wantCode)
	}
	return body
}

// metricsJSON fetches /metrics in its JSON shape (the default
// exposition is Prometheus text).
func metricsJSON(t *testing.T, baseURL string) []byte {
	t.Helper()
	req, err := http.NewRequest("GET", baseURL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d (%s)", resp.StatusCode, body)
	}
	return body
}

func TestListObjects(t *testing.T) {
	ts, _ := testServer(t)
	for query, want := range map[string]string{
		"":                  "clip song show",
		"?kind=audio":       "song",
		"?attr.language=en": "clip",
	} {
		var reply struct {
			Objects []struct {
				Name string `json:"name"`
			} `json:"objects"`
		}
		if err := json.Unmarshal(get(t, ts.URL+"/v1/objects"+query, 200), &reply); err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, o := range reply.Objects {
			got += " " + o.Name
		}
		if got != " "+want {
			t.Errorf("GET /v1/objects%s lists%s, want %s", query, got, want)
		}
	}
}

func TestObjectDetail(t *testing.T) {
	ts, _ := testServer(t)
	var obj map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects/clip", 200), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["elements"].(float64) != 10 {
		t.Errorf("elements = %v", obj["elements"])
	}
	if !strings.Contains(obj["categories"].(string), "continuous") {
		t.Errorf("categories = %v", obj["categories"])
	}
	get(t, ts.URL+"/v1/objects/ghost", 404)
}

func TestElementAndAt(t *testing.T) {
	ts, db := testServer(t)
	body := get(t, ts.URL+"/v1/objects/clip/element/3", 200)
	// Must match the stored payload exactly.
	clip, _ := db.Lookup("clip")
	it, _ := db.Interpretation(clip.Blob)
	want, _ := it.Payload(clip.Track, 3)
	if string(body) != string(want) {
		t.Error("element payload mismatch")
	}
	get(t, ts.URL+"/v1/objects/clip/element/999", 404)
	get(t, ts.URL+"/v1/objects/clip/element/x", 400)

	// Time-addressed access: tick 3 covers element 3 (PAL frames).
	resp, err := http.Get(ts.URL + "/v1/objects/clip/at/3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Element-Index") != "3" {
		t.Errorf("index header = %q", resp.Header.Get("X-Element-Index"))
	}
	get(t, ts.URL+"/v1/objects/clip/at/99999", 404)
}

func TestStream(t *testing.T) {
	ts, db := testServer(t)
	body := get(t, ts.URL+"/v1/objects/clip/stream?from=2&to=5", 200)
	clip, _ := db.Lookup("clip")
	it, _ := db.Interpretation(clip.Blob)
	off := 0
	for i := 2; i < 5; i++ {
		if off+8 > len(body) {
			t.Fatalf("truncated stream at element %d", i)
		}
		n := int(binary.BigEndian.Uint64(body[off:]))
		off += 8
		want, _ := it.Payload(clip.Track, i)
		if n != len(want) || string(body[off:off+n]) != string(want) {
			t.Fatalf("element %d mismatch", i)
		}
		off += n
	}
	if off != len(body) {
		t.Errorf("trailing bytes: %d", len(body)-off)
	}
	get(t, ts.URL+"/v1/objects/clip/stream?from=5&to=2", 400)
	get(t, ts.URL+"/v1/objects/clip/stream?from=0&to=99", 400)
}

func TestTimelineAndLineage(t *testing.T) {
	ts, _ := testServer(t)
	var spans []map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects/show/timeline", 200), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	for _, sp := range spans {
		// snake_case, as every route answers: name, start, end.
		if _, ok := sp["name"].(string); !ok || len(sp) != 3 || sp["start"] == nil || sp["end"] == nil {
			t.Errorf("span fields = %v, want name, start and end", sp)
		}
	}
	get(t, ts.URL+"/v1/objects/clip/timeline", 400) // not multimedia

	var nodes []map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects/show/lineage", 200), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 5 { // show + clip + song + 2 blobs
		t.Errorf("lineage = %d nodes", len(nodes))
	}
}

// TestTimelineAndLineageText: under Accept: text/plain the two graph
// routes answer the text the catalog renders — the timeline's axis and
// the instance diagram — and a refusal keeps its JSON envelope. The
// diagram of /lineage?as_of=S is the one at S, though the composition
// and one of its components were deleted after S.
func TestTimelineAndLineageText(t *testing.T) {
	ts, db := testServer(t)
	text := map[string]string{"Accept": "text/plain"}
	show, _ := db.Lookup("show")
	mm, err := db.BuildMultimedia(show.ID)
	if err != nil {
		t.Fatal(err)
	}
	timeline, err := mm.RenderTimeline(64)
	if err != nil {
		t.Fatal(err)
	}
	diagram, err := db.InstanceDiagram(show.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, hdr := getWithHeaders(t, ts.URL+"/v1/objects/show/timeline", text, 200)
	if string(body) != timeline || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("timeline text (%s):\n%s\nwant\n%s", hdr.Get("Content-Type"), body, timeline)
	}
	if body, _ := getWithHeaders(t, ts.URL+"/v1/objects/show/lineage", text, 200); string(body) != diagram {
		t.Errorf("lineage text:\n%s\nwant\n%s", body, diagram)
	}
	if body, _ := getWithHeaders(t, ts.URL+"/v1/objects/clip/timeline", text, 400); !strings.Contains(string(body), CodeNotComposite) {
		t.Errorf("timeline text of a stored object: %s", body)
	}

	S := db.Seq()
	song, _ := db.Lookup("song")
	clip, _ := db.Lookup("clip")
	for _, id := range []core.ID{show.ID, song.ID} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{{Object: clip.ID}}, nil); err != nil {
		t.Fatal(err)
	}
	if body, _ := getWithHeaders(t, fmt.Sprintf("%s/v1/objects/show/lineage?as_of=%d", ts.URL, S), text, 200); string(body) != diagram {
		t.Errorf("lineage text as of %d:\n%s\nwant\n%s", S, body, diagram)
	}
	if body, _ := getWithHeaders(t, ts.URL+"/v1/objects/show/lineage", text, 200); strings.Contains(string(body), "(song)") {
		t.Errorf("the current lineage text still shows the deleted song:\n%s", body)
	}
}

// derivedServer is testServer plus a derived cut of "clip".
func derivedServer(t *testing.T) (*httptest.Server, *catalog.DB) {
	t.Helper()
	ts, db := testServer(t)
	clip, _ := db.Lookup("clip")
	if _, err := db.SelectDuration(clip.ID, "cut", 2, 6); err != nil {
		t.Fatal(err)
	}
	return ts, db
}

// TestDerivedObjectErrorPaths: a derived object has no stored
// elements; element-oriented endpoints must 4xx, not panic.
func TestDerivedObjectErrorPaths(t *testing.T) {
	ts, _ := derivedServer(t)
	get(t, ts.URL+"/v1/objects/cut/element/0", 400)
	get(t, ts.URL+"/v1/objects/cut/at/0", 400)
	get(t, ts.URL+"/v1/objects/cut/stream", 400)
	// Multimedia objects likewise.
	get(t, ts.URL+"/v1/objects/show/element/0", 400)
	get(t, ts.URL+"/v1/objects/show/at/0", 400)
	get(t, ts.URL+"/v1/objects/show/stream", 400)
}

// TestEmptyListEncodesArray: no matches must encode as [], not null.
func TestEmptyListEncodesArray(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	if body := string(get(t, ts.URL+"/v1/objects", 200)); !strings.Contains(body, `"objects":[]`) {
		t.Errorf("empty list = %s, want an empty objects array", body)
	}
	// A filter matching nothing on a populated catalog, too.
	ts2, _ := testServer(t)
	if body := string(get(t, ts2.URL+"/v1/objects?kind=animation", 200)); !strings.Contains(body, `"objects":[]`) {
		t.Errorf("filtered-empty list = %s, want an empty objects array", body)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	var reply map[string]string
	if err := json.Unmarshal(get(t, ts.URL+"/healthz", 200), &reply); err != nil {
		t.Fatal(err)
	}
	if reply["status"] != "ok" {
		t.Errorf("healthz = %v", reply)
	}
}

func TestExpandEndpoint(t *testing.T) {
	ts, _ := derivedServer(t)
	var sum map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/v1/objects/cut/expand", 200), &sum); err != nil {
		t.Fatal(err)
	}
	if sum["kind"] != "video" || sum["elements"].(float64) != 4 {
		t.Errorf("expand summary = %v", sum)
	}
	if sum["size_bytes"].(float64) <= 0 {
		t.Errorf("size_bytes = %v", sum["size_bytes"])
	}
	// Multimedia objects cannot be expanded (play them instead).
	get(t, ts.URL+"/v1/objects/show/expand", 400)
	get(t, ts.URL+"/v1/objects/ghost/expand", 404)
}

// TestConcurrentExpandSingleflight fires many concurrent /expand
// requests at one derived object and asserts, via /metrics, that each
// object in its derivation chain was decoded exactly once.
func TestConcurrentExpandSingleflight(t *testing.T) {
	ts, _ := derivedServer(t)
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/objects/cut/expand")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var m struct {
		Objects        int `json:"objects"`
		ExpansionCache struct {
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
			Evictions     int64 `json:"evictions"`
			BytesResident int64 `json:"bytes_resident"`
			CapacityBytes int64 `json:"capacity_bytes"`
			Entries       int64 `json:"entries"`
		} `json:"expansion_cache"`
	}
	if err := json.Unmarshal(metricsJSON(t, ts.URL), &m); err != nil {
		t.Fatal(err)
	}
	if m.Objects != 4 { // clip, song, show, cut
		t.Errorf("objects = %d", m.Objects)
	}
	c := m.ExpansionCache
	// Expanding "cut" also expands its input "clip": two decodes
	// total, no matter how many clients raced.
	if c.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one decode per object)", c.Misses)
	}
	if c.Hits != clients-1 {
		t.Errorf("hits = %d, want %d", c.Hits, clients-1)
	}
	if c.Entries != 2 || c.BytesResident <= 0 || c.BytesResident > c.CapacityBytes {
		t.Errorf("cache = %+v", c)
	}
}

func TestCutEndpoint(t *testing.T) {
	ts, db := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/objects/clip/cut?out=webcut&from=2&to=6", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	obj, err := db.Lookup("webcut")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Expand(obj.ID)
	if err != nil || len(v.Video) != 4 {
		t.Fatalf("cut expand: %v", err)
	}
	// Bad query.
	resp2, _ := http.Post(ts.URL+"/v1/objects/clip/cut?out=&from=a", "", nil)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cut = %d", resp2.StatusCode)
	}
}
