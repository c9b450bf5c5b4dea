package workload

import (
	"bytes"
	"fmt"
	"testing"
)

// replayRecords builds a trace whose records span every divergence
// class against newFakeMedia(3, epoch, 1): a volatile-only match, a
// replayable POST, a matching error response, a pinned page the
// replay-side ring evicted (410 epoch_gone), a real mismatch, and a
// recorded shed.
func replayRecords(epoch uint64) []TraceRecord {
	objBody := fmt.Sprintf(`{"name":"clipA","id":99,"epoch":%d,"kind":"video"}`, epoch+100)
	batchBody := fmt.Sprintf(`{"created":2,"epoch":%d}`, epoch+100)
	missBody := `{"error":{"code":"not_found","message":"recorded wording"}}`
	return []TraceRecord{
		// Recorded against a different id and epoch: normalization must
		// still call it a match.
		{Seq: 1, Method: "GET", Path: "/v1/objects/clipA", RouteName: "object",
			Status: 200, Digest: BodyDigest("application/json", []byte(objBody)), LatencyNs: 1000},
		{Seq: 2, Method: "POST", Path: "/v1/objects:batch", RouteName: "batch",
			Body:   []byte(`{"items":[{"name":"b1"}]}`),
			Status: 201, Digest: BodyDigest("application/json", []byte(batchBody)), LatencyNs: 1500},
		{Seq: 3, Method: "GET", Path: "/v1/objects/missing", Status: 404, ErrCode: "not_found",
			Digest: BodyDigest("application/json", []byte(missBody)), LatencyNs: 800},
		// Recorded 200 on a pinned page; the replay-side server evicts
		// the pin → deterministic 410 epoch_gone, counted, never failed.
		{Seq: 4, Method: "GET", Path: "/v1/query?kind=video&limit=2&offset=2&epoch=1", RouteName: "query",
			Status: 200, Digest: "recorded-page-digest", LatencyNs: 900},
		// Recorded shed: no server effect, replay skips it.
		{Seq: 5, Method: "GET", Path: "/v1/objects/clipA", Status: 503, ErrCode: "overloaded",
			Shed: true, LatencyNs: 10},
	}
}

func TestReplayClassifiesDivergence(t *testing.T) {
	ts := newFakeMedia(3, 5, 1)
	defer ts.Close()
	records := replayRecords(5)
	rep, err := Replay(ts.URL, TraceMeta{Objects: 3}, records, "digest123")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InitialMatch || rep.InitialObjects != 3 {
		t.Errorf("initial: objects=%d match=%v", rep.InitialObjects, rep.InitialMatch)
	}
	if rep.Records != 5 || rep.Replayed != 4 {
		t.Errorf("records=%d replayed=%d", rep.Records, rep.Replayed)
	}
	if rep.Matches != 3 {
		t.Errorf("matches = %d, want 3 (volatile fields and error wording must not count)", rep.Matches)
	}
	if rep.EpochGone != 1 || rep.RecordedShed != 1 || rep.Mismatches != 0 {
		t.Errorf("epoch_gone=%d shed=%d mismatches=%d", rep.EpochGone, rep.RecordedShed, rep.Mismatches)
	}
	if !rep.Equivalent {
		t.Error("report not equivalent despite zero mismatches")
	}
	if rep.Routes["object"].Matches != 1 || rep.Routes["query"].EpochGone != 1 || rep.Routes["shed"].Shed != 1 {
		t.Errorf("route counts = %+v", rep.Routes)
	}
}

func TestReplayDetectsMismatch(t *testing.T) {
	ts := newFakeMedia(3, 5, 0)
	defer ts.Close()
	records := []TraceRecord{
		// Status diverges (recorded 200, server 404).
		{Seq: 1, Method: "GET", Path: "/v1/objects/missing", Status: 200, Digest: "x", LatencyNs: 1},
	}
	// Digest diverges on a stable field — often enough to fill the
	// sample list past its cap.
	for seq := uint64(2); seq <= maxMismatchSamples+4; seq++ {
		records = append(records, TraceRecord{Seq: seq, Method: "GET", Path: "/v1/objects/clipA",
			Status: 200, Digest: "stale-digest", LatencyNs: 1})
	}
	rep, err := Replay(ts.URL, TraceMeta{Objects: 3}, records, "d")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != len(records) || rep.Equivalent {
		t.Errorf("mismatches=%d of %d, equivalent=%v", rep.Mismatches, len(records), rep.Equivalent)
	}
	if len(rep.MismatchSamples) != maxMismatchSamples {
		t.Fatalf("samples = %d, want capped at %d", len(rep.MismatchSamples), maxMismatchSamples)
	}
	s := rep.MismatchSamples[0]
	if s.Seq != 1 || s.RecordedStatus != 200 || s.ReplayedStatus != 404 || s.ReplayedCode != "not_found" {
		t.Errorf("sample = %+v", s)
	}
}

func TestReplayInitialMismatch(t *testing.T) {
	ts := newFakeMedia(7, 5, 0)
	defer ts.Close()
	rep, err := Replay(ts.URL, TraceMeta{Objects: 3}, nil, "d")
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialMatch || rep.Equivalent {
		t.Error("catalog rebuilt from the wrong starting point passed as equivalent")
	}
}

func TestReplayTransportErrors(t *testing.T) {
	records := []TraceRecord{{Seq: 1, Method: "GET", Path: "/v1/objects/a", Status: 200, Digest: "d"}}
	rep, err := Replay("http://127.0.0.1:1", TraceMeta{}, records, "d")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 1 || rep.Mismatches != 1 || rep.Equivalent {
		t.Errorf("transport=%d mismatches=%d equivalent=%v",
			rep.TransportErrors, rep.Mismatches, rep.Equivalent)
	}
	if rep.InitialObjects != -1 {
		t.Errorf("unreachable probe = %d, want -1", rep.InitialObjects)
	}
}

// TestReplayReportDeterministic is the property the CI lane diffs:
// two replays of one trace against equivalent servers render
// byte-identical reports.
func TestReplayReportDeterministic(t *testing.T) {
	records := replayRecords(5)
	var encodings [2][]byte
	for i := range encodings {
		ts := newFakeMedia(3, 5, 1)
		rep, err := Replay(ts.URL, TraceMeta{Objects: 3}, records, "digest123")
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		encodings[i] = EncodeReport(rep)
	}
	if !bytes.Equal(encodings[0], encodings[1]) {
		t.Fatalf("replay reports differ:\n--- first\n%s\n--- second\n%s", encodings[0], encodings[1])
	}
}

func TestTraceRecordRoute(t *testing.T) {
	if r := (TraceRecord{RouteName: "object"}).Route(); r != "object" {
		t.Errorf("route = %q", r)
	}
	if r := (TraceRecord{Shed: true}).Route(); r != "shed" {
		t.Errorf("shed route = %q", r)
	}
	if r := (TraceRecord{}).Route(); r != "other" {
		t.Errorf("unmatched route = %q", r)
	}
}
