package repl

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timedmedia/internal/server"
)

// TestLaggingFollowerRefusesPastItsHead: a follower held behind its
// primary answers as_of=S past its own head with 410 version_gone —
// never its older head under an as-of label. Once it has caught up it
// answers as_of=S with the primary's status, body and ETag.
func TestLaggingFollowerRefusesPastItsHead(t *testing.T) {
	tp := newTestPrimary(t)
	clip := tp.ingest(t, "clip", 10, 1)
	tp.cut(t, clip, "cut1", 2, 8)

	// The feed passes through a gate: while held, the WAL route
	// answers 503 and the follower retries, applying nothing.
	var held atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if held.Load() && strings.HasPrefix(r.URL.Path, "/v1/repl/wal") {
			http.Error(w, "held", http.StatusServiceUnavailable)
			return
		}
		tp.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer gate.Close()
	f, err := Start(gate.URL, t.TempDir(), Options{ReconnectBase: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, "first catch-up", caughtUp(f, tp.db))

	held.Store(true)
	gate.CloseClientConnections() // drop the live tail
	lagged := f.DB().CurrentView().Epoch()
	tp.cut(t, clip, "cut2", 1, 5)
	S := tp.db.Seq()
	time.Sleep(50 * time.Millisecond) // several refused reconnects
	if got := f.DB().CurrentView().Epoch(); got != lagged || S <= lagged {
		t.Fatalf("held follower moved from %d to %d; primary at %d", lagged, got, S)
	}

	primary := httptest.NewServer(server.New(tp.db))
	defer primary.Close()
	follower := httptest.NewServer(server.New(f.DB()))
	defer follower.Close()
	paths := []string{"/v1/objects/cut2", "/v1/objects/cut1", "/v1/query?kind=video"}
	for _, path := range paths {
		for _, pin := range []string{"as_of", "epoch"} {
			code, body, _ := fetchPinned(t, follower.URL, path, pin, S)
			if code != http.StatusGone || !bytes.Contains(body, []byte(`"version_gone"`)) {
				t.Errorf("lagging follower at %d, %s with %s=%d: %d %s, want 410 version_gone", lagged, path, pin, S, code, body)
			}
		}
	}

	held.Store(false)
	waitFor(t, "catch-up after release", caughtUp(f, tp.db))
	for _, path := range paths {
		pc, pb, pe := fetchPinned(t, primary.URL, path, "as_of", S)
		fc, fb, fe := fetchPinned(t, follower.URL, path, "as_of", S)
		if pc != http.StatusOK || fc != pc || !bytes.Equal(fb, pb) || fe != pe {
			t.Errorf("%s as_of=%d: follower %d %s ETag %s, primary %d %s ETag %s", path, S, fc, fb, fe, pc, pb, pe)
		}
	}
}

// fetchPinned GETs path pinned to seq by the named parameter and
// returns the status, body and ETag.
func fetchPinned(t *testing.T, base, path, pin string, seq uint64) (int, []byte, string) {
	t.Helper()
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	resp, err := http.Get(fmt.Sprintf("%s%s%s%s=%d", base, path, sep, pin, seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag")
}
