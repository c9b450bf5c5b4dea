package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/workload"
)

// The replay-equivalence oracle: record a workload against a live
// catalog, rebuild an identical catalog from the same deterministic
// ingest, replay the trace, and assert the responses are equivalent
// modulo volatile fields. Epoch numbers and object IDs differ between
// the two runs by construction — the digest normalization is exactly
// what makes them comparable.

// oracleDB rebuilds the recorded catalog's starting state: the same
// fixtures ingested in the same order. retention < 1 keeps the
// default epoch retention ring.
func oracleDB(t *testing.T, retention int) *catalog.DB {
	t.Helper()
	var opts []catalog.Option
	if retention > 0 {
		opts = append(opts, catalog.WithEpochRetention(retention))
	}
	db := catalog.New(blob.NewMemStore(), opts...)
	for i, name := range []string{"alpha", "beta"} {
		if _, err := db.Ingest(name, fixtures.Video(10, 32, 24, int64(i+1)), catalog.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// recordOracleTrace runs the reference request sequence against a
// fresh catalog with capture on: point reads, an epoch-pinned
// paginated query straddling two cut mutations, and a read of a
// just-created object.
func recordOracleTrace(t *testing.T, path string) {
	t.Helper()
	db := oracleDB(t, 0)
	rec, err := workload.CreateTrace(path, workload.TraceMeta{
		Objects: db.Len(), Seq: db.Seq(), Epoch: db.CurrentView().Epoch(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, WithTraceRecorder(rec)))
	defer ts.Close()

	get(t, ts.URL+"/v1/objects/alpha", 200)
	page := get(t, ts.URL+"/v1/query?kind=video&limit=1&offset=0", 200)
	var first struct {
		Epoch      uint64 `json:"epoch"`
		NextOffset *int   `json:"next_offset"`
	}
	if err := json.Unmarshal(page, &first); err != nil {
		t.Fatal(err)
	}
	if first.NextOffset == nil {
		t.Fatal("first page reports no follow-up page")
	}
	post(t, ts.URL+"/v1/objects/alpha/cut?out=c1&from=0&to=2")
	post(t, ts.URL+"/v1/objects/beta/cut?out=c2&from=1&to=3")
	// The pinned second page reads the pre-cut epoch — recorded as a
	// 200 here (default retention keeps it), the replay-side retention
	// policy decides its fate.
	get(t, fmt.Sprintf("%s/v1/query?kind=video&limit=1&offset=%d&epoch=%d",
		ts.URL, *first.NextOffset, first.Epoch), 200)
	get(t, ts.URL+"/v1/objects/c1", 200)

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func post(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST %s = %d", url, resp.StatusCode)
	}
}

func TestReplayOracleEquivalent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.trc")
	recordOracleTrace(t, path)
	meta, records, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := workload.TraceFileDigest(path)
	if err != nil {
		t.Fatal(err)
	}

	// Two replays against two independently rebuilt catalogs: both
	// fully equivalent, and the deterministic reports byte-identical.
	var encodings [2][]byte
	for i := range encodings {
		ts := httptest.NewServer(New(oracleDB(t, 0)))
		rep, err := workload.Replay(ts.URL, meta, records, digest)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Equivalent {
			t.Fatalf("replay %d not equivalent: %s", i, workload.EncodeReport(rep))
		}
		if rep.Matches != len(records) {
			t.Errorf("replay %d: %d matches of %d records", i, rep.Matches, len(records))
		}
		if rep.EpochGone != 0 || rep.Mismatches != 0 {
			t.Errorf("replay %d: epoch_gone=%d mismatches=%d", i, rep.EpochGone, rep.Mismatches)
		}
		encodings[i] = workload.EncodeReport(rep)
	}
	if !bytes.Equal(encodings[0], encodings[1]) {
		t.Fatalf("replay reports differ:\n--- first\n%s\n--- second\n%s", encodings[0], encodings[1])
	}
}

// TestReplayOracleRetentionEviction replays the same trace against a
// catalog whose retention ring keeps only the current epoch: the two
// cut mutations retire the epoch the recorded query pinned, so the
// pinned page deterministically answers 410 epoch_gone. That is a
// replay-side policy consequence, counted as epoch_gone — never a
// mismatch, and byte-deterministic across replays.
func TestReplayOracleRetentionEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.trc")
	recordOracleTrace(t, path)
	meta, records, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := workload.TraceFileDigest(path)
	if err != nil {
		t.Fatal(err)
	}

	var encodings [2][]byte
	for i := range encodings {
		ts := httptest.NewServer(New(oracleDB(t, 1)))
		rep, err := workload.Replay(ts.URL, meta, records, digest)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.EpochGone != 1 {
			t.Fatalf("replay %d: epoch_gone = %d, want exactly the evicted pinned page:\n%s",
				i, rep.EpochGone, workload.EncodeReport(rep))
		}
		if rep.Mismatches != 0 || !rep.Equivalent {
			t.Errorf("replay %d: eviction misclassified: mismatches=%d equivalent=%v",
				i, rep.Mismatches, rep.Equivalent)
		}
		encodings[i] = workload.EncodeReport(rep)
	}
	if !bytes.Equal(encodings[0], encodings[1]) {
		t.Fatalf("eviction replay reports differ:\n--- first\n%s\n--- second\n%s", encodings[0], encodings[1])
	}
}
