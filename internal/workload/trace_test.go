package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func writeTestTrace(t *testing.T, path string, meta TraceMeta, recs []TraceRecord) {
	t.Helper()
	rec, err := CreateTrace(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := rec.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	in := []TraceRecord{
		{Method: "GET", Path: "/v1/objects/a", RouteName: "object", Status: 200, Digest: "d1", Epoch: 3, LatencyNs: 1000},
		{Method: "POST", Path: "/v1/objects:batch", Body: []byte(`{"items":[]}`), Status: 201, Digest: "d2", LatencyNs: 2000},
		{Method: "GET", Path: "/v1/objects/x", Status: 503, ErrCode: "overloaded", Shed: true, LatencyNs: 10},
	}
	writeTestTrace(t, path, TraceMeta{Objects: 5, Seq: 9, Epoch: 4}, in)

	meta, out, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta != (TraceMeta{Objects: 5, Seq: 9, Epoch: 4}) {
		t.Errorf("meta = %+v", meta)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		want := in[i]
		want.Seq = uint64(i + 1) // Recorder assigns completion order
		got := out[i]
		if got.Method != want.Method || got.Path != want.Path || got.Status != want.Status ||
			got.Digest != want.Digest || got.ErrCode != want.ErrCode ||
			got.Epoch != want.Epoch || got.Shed != want.Shed ||
			got.Seq != want.Seq || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestTraceTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	writeTestTrace(t, path, TraceMeta{Objects: 1}, []TraceRecord{
		{Method: "GET", Path: "/a", Status: 200},
		{Method: "GET", Path: "/b", Status: 200},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a torn final frame: the records before
	// it must still parse.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadTrace(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 {
		t.Errorf("got %d records before the tear, want 1", len(recs))
	}
}

func TestTraceCorruptMiddleRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	writeTestTrace(t, path, TraceMeta{}, []TraceRecord{
		{Method: "GET", Path: "/aaaaaaaaaa", Status: 200},
		{Method: "GET", Path: "/bbbbbbbbbb", Status: 200},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: corruption with more data following
	// is damage, not a tear, and must be an error.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadTrace(path); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

func TestTraceBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.trc")
	os.WriteFile(path, []byte("this is not a trace file at all"), 0o644)
	if _, _, err := ReadTrace(path); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRecorderStickyError(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "trace")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(f, TraceMeta{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Push enough records through the 64 KiB buffer to force a flush
	// onto the closed file; from then on every call reports the error.
	var firstErr error
	for i := 0; i < 5000 && firstErr == nil; i++ {
		firstErr = rec.Record(TraceRecord{Method: "GET", Path: "/some/long/enough/path", Status: 200})
	}
	if firstErr == nil {
		t.Fatal("writes to a closed file never failed")
	}
	if err := rec.Record(TraceRecord{}); err == nil {
		t.Error("record after failure succeeded")
	}
	if err := rec.Close(); err == nil {
		t.Error("close after failure reported success")
	}
}

func TestCreateTraceBadPath(t *testing.T) {
	if _, err := CreateTrace(filepath.Join(t.TempDir(), "no", "such", "dir", "t.trc"), TraceMeta{}); err == nil {
		t.Error("create into missing directory succeeded")
	}
}

// parseAllocBytes reports the fewest bytes parseTrace allocated on
// data over up to three tries (a background allocation can land in any
// one window; it will not land in all three).
func parseAllocBytes(data []byte, bound uint64) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parseTrace(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// encodeTrace renders meta and recs through a Recorder, as capture
// writes them.
func encodeTrace(tb testing.TB, meta TraceMeta, recs []TraceRecord) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, meta)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := rec.Record(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenBytes pins TBMTRC1 on disk: a meta frame and one
// record through Recorder must encode to these bytes, so a change that
// moved them on both the writer and the reader alike cannot pass as a
// round trip.
func TestTraceGoldenBytes(t *testing.T) {
	got := encodeTrace(t, TraceMeta{Objects: 5, Seq: 9, Epoch: 4}, []TraceRecord{
		{Method: "GET", Path: "/v1/objects/a", RouteName: "object", Status: 200, Digest: "d1", Epoch: 3, LatencyNs: 1000},
	})
	js := func(s string) string { return hex.EncodeToString([]byte(s)) }
	want := "54424d545243310a" + // "TBMTRC1\n"
		"0000001f" + "0619c610" + js(`{"objects":5,"seq":9,"epoch":4}`) +
		"00000081" + "5473420e" + js(`{"seq":1,"at_ns":0,"method":"GET","path":"/v1/objects/a","route":"object","status":200,"digest":"d1","epoch":3,"latency_ns":1000}`)
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("trace bytes:\n got %s\nwant %s", h, want)
	}
}

// FuzzTraceDecode feeds parseTrace — what tbmload replay reads off
// disk — arbitrary bytes. It must never panic; what it allocates is
// bounded by the input's length, whatever length a frame header
// claims; and a trace it accepts re-encodes through Recorder to one
// that parses to the same meta and records (Recorder renumbers Seq in
// completion order, and an empty body is written as none).
func FuzzTraceDecode(f *testing.F) {
	real := encodeTrace(f, TraceMeta{Objects: 5, Seq: 9, Epoch: 4}, []TraceRecord{
		{Method: "GET", Path: "/v1/objects/a", RouteName: "object", Status: 200, Digest: "d1", Epoch: 3, LatencyNs: 1000},
		{Method: "POST", Path: "/v1/objects:batch", RouteName: "batch", Body: []byte(`{"items":[]}`), Status: 201, Digest: "d2", LatencyNs: 2000},
		{Method: "GET", Path: "/v1/objects/x", Status: 503, ErrCode: "overloaded", Shed: true, LatencyNs: 10},
	})
	f.Add(real)
	f.Add(real[:len(real)-7]) // torn tail
	bad := bytes.Clone(real)
	bad[len(bad)/2] ^= 0xff // bad CRC in a middle frame
	f.Add(bad)
	var hostile [8]byte
	binary.BigEndian.PutUint32(hostile[:4], maxTraceFrame)
	f.Add(append([]byte(traceMagic), hostile[:]...)) // a 64 MiB frame that is not there
	binary.BigEndian.PutUint32(hostile[:4], math.MaxUint32)
	f.Add(append(bytes.Clone(real), hostile[:]...)) // past the bound, after good frames
	f.Fuzz(func(t *testing.T, data []byte) {
		// A frame's records cost a few hundred bytes each against the 8
		// header bytes a frame must occupy; a length field costs nothing.
		bound := 4096 + 256*uint64(len(data))
		if n := parseAllocBytes(data, bound); n > bound {
			t.Fatalf("parsing %d bytes allocated %d", len(data), n)
		}
		meta, recs, err := parseTrace(data)
		if err != nil {
			return
		}
		for i := range recs {
			recs[i].Seq = uint64(i + 1)
			if len(recs[i].Body) == 0 {
				recs[i].Body = nil
			}
		}
		meta2, recs2, err := parseTrace(encodeTrace(t, meta, recs))
		if err != nil {
			t.Fatalf("re-encoded trace refused: %v", err)
		}
		if meta2 != meta || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("re-encoded trace parsed to\n%+v %+v\nwant\n%+v %+v", meta2, recs2, meta, recs)
		}
	})
}
