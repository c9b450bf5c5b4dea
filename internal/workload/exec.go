package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// httpClient is what Execute and Replay send with.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// Execute sends items to base one request at a time, in order, and
// returns how many requests it sent. Each answer must be the one a
// healthy server gives — 201 for a cut or batch, 200 for everything
// else — because the server-side capture of this run is the recorded
// history replay checks against: a recording of failures would replay
// its failures "equivalently". The first other outcome, a transport
// error included, stops the run with an error naming op, path and
// status.
func Execute(base string, items []Item) (requests int, err error) {
	for _, it := range items {
		n, err := runItem(base, it)
		requests += n
		if err != nil {
			return requests, err
		}
	}
	return requests, nil
}

// runItem sends one item, plus the pinned follow-up pages of a
// pquery, and returns how many requests that took.
func runItem(base string, it Item) (int, error) {
	want := http.StatusOK
	if it.Method == http.MethodPost {
		want = http.StatusCreated
	}
	body, err := expect(base, it.Op, it.Method, it.Path, it.Body, want)
	if err != nil || it.Op != "pquery" {
		return 1, err
	}
	// Walk the remaining pages pinned to the first page's epoch so they
	// are mutually consistent. One sequential client makes no mutation
	// between a page and its follow-ups, so the pin cannot be evicted:
	// a 410 here is a failure like any other.
	requests := 1
	for pins := 0; pins < 8; pins++ {
		var page struct {
			Epoch      uint64 `json:"epoch"`
			NextOffset *int   `json:"next_offset"`
		}
		if json.Unmarshal(body, &page) != nil || page.NextOffset == nil {
			break
		}
		path := fmt.Sprintf("%s&offset=%d&epoch=%d",
			stripParams(it.Path, "offset", "epoch"), *page.NextOffset, page.Epoch)
		requests++
		if body, err = expect(base, it.Op, http.MethodGet, path, nil, http.StatusOK); err != nil {
			return requests, err
		}
	}
	return requests, nil
}

// expect sends one request and returns its body if it answered want.
func expect(base, op, method, path string, reqBody []byte, want int) ([]byte, error) {
	status, _, body, err := send(base, method, path, reqBody)
	if err != nil {
		return nil, fmt.Errorf("workload: %s %s %s: %w", op, method, path, err)
	}
	if status != want {
		msg := fmt.Sprintf("workload: %s %s %s: status %d, want %d", op, method, path, status, want)
		if code := ErrCodeFromBody(body); code != "" {
			msg += " (" + code + ")"
		}
		return nil, errors.New(msg)
	}
	return body, nil
}

// stripParams removes the named query parameters from a path so a
// follow-up page can re-set them.
func stripParams(path string, names ...string) string {
	base, query, ok := strings.Cut(path, "?")
	if !ok {
		return path
	}
	var kept []string
	for _, kv := range strings.Split(query, "&") {
		keep := true
		for _, n := range names {
			if strings.HasPrefix(kv, n+"=") {
				keep = false
			}
		}
		if keep {
			kept = append(kept, kv)
		}
	}
	return base + "?" + strings.Join(kept, "&")
}

// send issues one request and reads the whole answer. A non-empty
// reqBody is sent as JSON.
func send(base, method, path string, reqBody []byte) (status int, contentType string, body []byte, err error) {
	var req *http.Request
	if len(reqBody) > 0 {
		req, err = http.NewRequest(method, base+path, bytes.NewReader(reqBody))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(method, base+path, nil)
	}
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, nil
}
