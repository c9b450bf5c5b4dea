package workload

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newFakeMedia is a stub of the media server's workload-facing
// surface, just enough for the executor and replayer: object reads,
// mutations, and an epoch-pinned paginated query. pinnedFails makes
// the first n pinned page requests answer 410 epoch_gone, simulating
// retention-ring eviction mid-walk.
func newFakeMedia(objects int, epoch uint64, pinnedFails int) *httptest.Server {
	var mu sync.Mutex
	fails := pinnedFails
	reply := func(w http.ResponseWriter, code int, body string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		io.WriteString(w, body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects", func(w http.ResponseWriter, r *http.Request) {
		reply(w, 200, fmt.Sprintf(`{"objects":[],"total":%d,"epoch":%d}`, objects, epoch))
	})
	mux.HandleFunc("GET /v1/objects/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if name == "missing" {
			reply(w, 404, `{"error":{"code":"not_found","message":"no object `+name+`"}}`)
			return
		}
		reply(w, 200, fmt.Sprintf(`{"name":%q,"id":7,"epoch":%d,"kind":"video"}`, name, epoch))
	})
	mux.HandleFunc("GET /v1/objects/{name}/expand", func(w http.ResponseWriter, r *http.Request) {
		reply(w, 200, fmt.Sprintf(`{"name":%q,"epoch":%d,"tree":{"op":"leaf"}}`, r.PathValue("name"), epoch))
	})
	mux.HandleFunc("GET /v1/objects/{name}/element/{i}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		io.WriteString(w, "payload-"+r.PathValue("i"))
	})
	mux.HandleFunc("POST /v1/objects/{name}/cut", func(w http.ResponseWriter, r *http.Request) {
		reply(w, 201, fmt.Sprintf(`{"name":%q,"id":9,"epoch":%d}`, r.URL.Query().Get("out"), epoch))
	})
	mux.HandleFunc("POST /v1/objects:batch", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if len(body) == 0 {
			reply(w, 400, `{"error":{"code":"bad_request","message":"empty body"}}`)
			return
		}
		reply(w, 201, fmt.Sprintf(`{"created":2,"epoch":%d}`, epoch))
	})
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Get("epoch") != "" { // pinned follow-up page
			mu.Lock()
			evict := fails > 0
			if evict {
				fails--
			}
			mu.Unlock()
			if evict {
				reply(w, 410, `{"error":{"code":"epoch_gone","message":"epoch evicted"}}`)
				return
			}
			reply(w, 200, fmt.Sprintf(`{"objects":[],"total":4,"epoch":%d}`, epoch))
			return
		}
		if q.Get("offset") != "" { // pquery first page: more follows
			reply(w, 200, fmt.Sprintf(`{"objects":[],"total":4,"epoch":%d,"next_offset":2}`, epoch))
			return
		}
		reply(w, 200, fmt.Sprintf(`{"objects":[],"total":4,"epoch":%d}`, epoch))
	})
	return httptest.NewServer(mux)
}

func TestExecuteDrivesSchedule(t *testing.T) {
	ts := newFakeMedia(3, 5, 0)
	defer ts.Close()
	items, err := Generate(21, testInventory(t))
	if err != nil {
		t.Fatal(err)
	}
	requests, err := Execute(ts.URL, items)
	if err != nil {
		t.Fatalf("healthy stub failed the run: %v", err)
	}
	// pquery walks a follow-up page, so requests > items.
	if requests <= len(items) {
		t.Errorf("requests = %d, want more than the %d items", requests, len(items))
	}
}

// TestExecuteCountsFailures: any answer but the expected one stops the
// run with an error naming op, path and status — a shed, a pinned
// page that lost its pin, and a server that is not there at all.
func TestExecuteCountsFailures(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":{"code":"overloaded","message":"shed"}}`)
	})
	shedding := httptest.NewServer(mux)
	defer shedding.Close()
	evicting := newFakeMedia(3, 5, 1)
	defer evicting.Close()
	down := httptest.NewServer(mux)
	down.Close()

	cut := Item{Op: "cut", Method: "POST", Path: "/v1/objects/clipA/cut?out=c1&from=0&to=2"}
	pquery := Item{Op: "pquery", Method: "GET", Path: "/v1/query?kind=video&limit=2&offset=0"}
	read := Item{Op: "object", Method: "GET", Path: "/v1/objects/clipA"}
	cases := []struct {
		name     string
		base     string
		items    []Item
		requests int
		want     []string
	}{
		{"shed cut", shedding.URL, []Item{cut, read}, 1, []string{"cut", cut.Path, "status 503", "want 201", "overloaded"}},
		{"evicted pin", evicting.URL, []Item{read, pquery, read}, 3, []string{"pquery", "epoch=5", "status 410", "want 200"}},
		{"transport", down.URL, []Item{read}, 1, []string{"object", read.Path}},
	}
	for _, tc := range cases {
		requests, err := Execute(tc.base, tc.items)
		if err == nil {
			t.Errorf("%s: run succeeded", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
		if requests != tc.requests {
			t.Errorf("%s: %d requests sent, want %d (stop at the first failure)", tc.name, requests, tc.requests)
		}
	}
}

func TestStripParams(t *testing.T) {
	cases := []struct{ in, out string }{
		{"/v1/query?kind=video&limit=4&offset=0", "/v1/query?kind=video&limit=4"},
		{"/v1/query?offset=2&epoch=9&kind=video", "/v1/query?kind=video"},
		{"/v1/query", "/v1/query"},
	}
	for _, tc := range cases {
		if got := stripParams(tc.in, "offset", "epoch"); got != tc.out {
			t.Errorf("stripParams(%q) = %q, want %q", tc.in, got, tc.out)
		}
	}
}
