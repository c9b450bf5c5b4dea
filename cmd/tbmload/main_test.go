package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/server"
	"timedmedia/internal/workload"
)

// fixtureDB builds the starting state both sides of a round trip
// share: the same two videos ingested in the same order.
func fixtureDB(t *testing.T) *catalog.DB {
	t.Helper()
	db := catalog.New(blob.NewMemStore())
	for i, name := range []string{"alpha", "beta"} {
		if _, err := db.Ingest(name, fixtures.Video(10, 32, 24, int64(i+1)), catalog.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRunReplayRoundTrip records `tbmload run` through the server's
// capture and replays the trace with `tbmload replay` against a
// rebuilt catalog: every record must match.
func TestRunReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trc")
	db := fixtureDB(t)
	rec, err := workload.CreateTrace(tracePath, workload.TraceMeta{
		Objects: db.Len(), Seq: db.Seq(), Epoch: db.CurrentView().Epoch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	recorded := httptest.NewServer(server.New(db, server.WithTraceRecorder(rec)))
	runErr := cmdRun([]string{"-url", recorded.URL, "-seed", "7"})
	recorded.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	replayed := httptest.NewServer(server.New(fixtureDB(t)))
	defer replayed.Close()
	reportPath := filepath.Join(dir, "report.json")
	if err := cmdReplay([]string{"-trace", tracePath, "-url", replayed.URL, "-out", reportPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep workload.ReplayReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent || rep.Matches != rep.Records {
		t.Fatalf("replay not equivalent (%d matches of %d records):\n%s", rep.Matches, rep.Records, data)
	}
	// The discovery listing, 64 ops and at least one follow-up page.
	if rep.Records < 66 || rep.Routes["cut"] == nil || rep.Routes["batch"] == nil {
		t.Errorf("recorded %d records over routes %v, want the whole op list", rep.Records, rep.Routes)
	}
}

// TestRunFailsOnFailedCut: a server that fails one cut fails the run,
// naming the op, its path and the status, instead of leaving a
// recording of a failure for replay to call equivalent.
func TestRunFailsOnFailedCut(t *testing.T) {
	var cuts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"objects":[{"name":"clip","class":"media object (non-derived)","kind":"video","elements":16}]}`)
	})
	mux.HandleFunc("POST /v1/objects/{name}/cut", func(w http.ResponseWriter, r *http.Request) {
		if cuts.Add(1) == 2 {
			http.Error(w, `{"error":{"code":"internal","message":"disk on fire"}}`, http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("POST /v1/objects:batch", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	err := cmdRun([]string{"-url", ts.URL, "-seed", "7"})
	if err == nil {
		t.Fatal("run succeeded against a server that failed a cut")
	}
	for _, want := range []string{"cut", "/v1/objects/clip/cut?out=", "status 500"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if n := cuts.Load(); n != 2 {
		t.Errorf("%d cuts sent, want the run to stop at the failed second one", n)
	}
}

// TestRemovedEntryPoints: the retired modes fail with a usage error
// that names the two that remain.
func TestRemovedEntryPoints(t *testing.T) {
	for _, args := range [][]string{
		{"score", "a=a.trc", "b=b.trc"},
		{"schedule", "-spec", "smoke.json"},
		{"-clients", "8"},
		nil,
	} {
		err := dispatch(args)
		if !errors.Is(err, errUsage) {
			t.Errorf("tbmload %s: err = %v, want the usage error", strings.Join(args, " "), err)
			continue
		}
		for _, want := range []string{"tbmload run", "tbmload replay"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("usage %q does not name %q", err, want)
			}
		}
	}
}
