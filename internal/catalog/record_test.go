package catalog

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
	"timedmedia/internal/timebase"
)

// Tests of the journal record's fixed layout (record.go).

var sixAttrs = map[string]string{"title": "t", "language": "fr", "rights": "", "": "empty key", "a": "1", "z": "26"}

// cutOp is the record the write path sees most: a cut, as
// SelectDuration builds it.
func cutOp() *walOp {
	return &walOp{Seq: 8721, Kind: opDerived, ID: 4404, Name: "w3-cut-000117", Op: "video-edit",
		Inputs: []core.ID{17}, Params: []byte(`{"entries":[{"input":0,"from":3,"to":9}]}`)}
}

// sampleOps is one record or more of every kind, each field of the kind
// populated, the integers at their extremes.
func sampleOps() map[string]*walOp {
	return map[string]*walOp{
		"interp":     {Seq: 1, Kind: opInterp, Blob: 3, Interp: []byte("stands in for an interp.Exported")},
		"nonderived": {Seq: 2, Kind: opNonDerived, ID: 1, Name: "clip", Attrs: sixAttrs, Blob: math.MaxUint64, Track: "video"},
		"cut":        cutOp(),
		"derived": {Seq: math.MaxUint64, Kind: opDerived, ID: math.MaxUint64, Name: "mix", Attrs: sixAttrs, Op: "audio-mix",
			Inputs: []core.ID{1, 2, math.MaxUint64}, Params: []byte{0, 0xff, 0x80}},
		"multimedia": {Seq: 300, Kind: opMultimedia, ID: 129, Name: "show", Attrs: sixAttrs, TimeNum: 1, TimeDen: 90000,
			Comps: []core.ComponentRef{
				{Object: 1, Start: math.MinInt64},
				{Object: 128, Start: math.MaxInt64, Region: &compose.Region{X: -1, Y: 2, W: 640, H: 480, Z: math.MinInt32}},
				{Object: 2, Region: &compose.Region{}},
			}},
		"multimedia, no region": {Seq: 5, Kind: opMultimedia, ID: 6, Name: "m", TimeNum: -25, TimeDen: 1,
			Comps: []core.ComponentRef{{Object: 1, Start: -40}}},
		"sync":   {Seq: 6, Kind: opSync, ID: 129, A: 2, B: -1, MaxSkew: math.MinInt64},
		"delete": {Seq: 7, Kind: opDelete, ID: 129},
	}
}

func mustEncode(t testing.TB, rec *walOp) []byte {
	t.Helper()
	data, err := encodeOp(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordRoundTrip: every kind decodes field for field to what was
// encoded, and the header alone says the same as the whole.
func TestRecordRoundTrip(t *testing.T) {
	for name, rec := range sampleOps() {
		data := mustEncode(t, rec)
		got, err := decodeOp(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: decoded\n%+v\nwant\n%+v", name, got, rec)
		}
		wantBlob := blob.ID(0)
		if rec.Kind == opInterp {
			wantBlob = rec.Blob
		}
		if seq, kind, blobID, err := RecordInfo(data); err != nil || seq != rec.Seq || kind != rec.Kind || blobID != wantBlob {
			t.Errorf("%s: RecordInfo = seq %d, %s, %v (%v)", name, seq, kind, blobID, err)
		}
		if head, body, err := peekOp(data); err != nil || head.ID != rec.ID || len(body) >= len(data) {
			t.Errorf("%s: peekOp = ID %v, %d of %d bytes left (%v)", name, head.ID, len(body), len(data), err)
		}
	}
	if _, err := encodeOp(&walOp{Kind: "interp"}); err == nil {
		t.Error("a kind the layout has no code for was encoded")
	}
}

// TestRecordEmptyIsAbsent: an empty attribute set, input list, component
// list or byte field is written like an absent one and decodes as nil,
// as it did under gob — a live object and its replayed twin must not
// differ in nil-ness either way.
func TestRecordEmptyIsAbsent(t *testing.T) {
	for _, kind := range []string{opInterp, opNonDerived, opDerived, opMultimedia} {
		empty := &walOp{Seq: 1, Kind: kind, Attrs: map[string]string{}, Inputs: []core.ID{}, Params: []byte{},
			Comps: []core.ComponentRef{}, Interp: []byte{}}
		absent := &walOp{Seq: 1, Kind: kind}
		data := mustEncode(t, empty)
		if !bytes.Equal(data, mustEncode(t, absent)) {
			t.Errorf("%s: empty fields and absent ones encode differently", kind)
		}
		if got, err := decodeOp(data); err != nil || !reflect.DeepEqual(got, absent) {
			t.Errorf("%s: decoded %+v (%v), want every empty field nil", kind, got, err)
		}
	}
}

// TestRecordRefusesDamage: every truncation of every kind, and every
// single byte after one, is ErrReplay — never a panic, never a record.
func TestRecordRefusesDamage(t *testing.T) {
	for name, rec := range sampleOps() {
		data := mustEncode(t, rec)
		for n := 0; n < len(data); n++ {
			if got, err := decodeOp(data[:n:n]); !errors.Is(err, ErrReplay) {
				t.Fatalf("%s cut to %d of %d bytes: decoded %+v, %v; want ErrReplay", name, n, len(data), got, err)
			}
		}
		for b := 0; b < 256; b++ {
			if got, err := decodeOp(append(data[:len(data):len(data)], byte(b))); !errors.Is(err, ErrReplay) {
				t.Fatalf("%s with a trailing %#02x: decoded %+v, %v; want ErrReplay", name, b, got, err)
			}
		}
	}
	header := []byte{recordLayout, 3, 1, 1} // a derived record: seq 1, ID 1
	for what, damage := range map[string][]byte{
		"an unknown kind code":         {recordLayout, 8, 1, 1},
		"kind code zero":               {recordLayout, 0, 1, 1},
		"another layout version":       {recordLayout + 1, 6, 1, 1},
		"an eleven-byte integer":       append([]byte{recordLayout, 6}, bytes.Repeat([]byte{0x80}, 11)...),
		"a name longer than the rest":  append(header[:4:4], 100, 'x', 'y', 'z'),
		"more attributes than bytes":   append(header[:4:4], 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0),
		"attribute keys out of order":  append(header[:4:4], 0, 2, 1, 'b', 0, 1, 'a', 0, 0, 0, 0),
		"an attribute key twice":       append(header[:4:4], 0, 2, 1, 'a', 0, 1, 'a', 0, 0, 0, 0),
		"more inputs than bytes":       append(header[:4:4], 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1, 0),
		"a region flag that is no bit": {recordLayout, 4, 1, 1, 0, 0, 2, 2, 1, 1, 0, 2},
	} {
		if got, err := decodeOp(damage); !errors.Is(err, ErrReplay) {
			t.Errorf("%s: decoded %+v, %v; want ErrReplay", what, got, err)
		}
	}
}

// TestRecordBytesCanonical: the bytes are a function of the record, not
// of the order a map happens to iterate in — what lets a fixture pin
// them and two replicas agree on them.
func TestRecordBytesCanonical(t *testing.T) {
	for name, rec := range sampleOps() {
		if len(rec.Attrs) != 6 {
			continue
		}
		want := mustEncode(t, rec)
		for i := 0; i < 200; i++ {
			rebuilt := *rec
			rebuilt.Attrs = map[string]string{}
			for k, v := range rec.Attrs { // a fresh map, filled in a fresh order
				rebuilt.Attrs[k] = v
			}
			if got := mustEncode(t, &rebuilt); !bytes.Equal(got, want) {
				t.Fatalf("%s: encoding %d differs from the first:\n% x\n% x", name, i, got, want)
			}
		}
	}
}

// TestRecordCost pins what the layout is for where tier-1 sees it: a
// cut's record is its content plus a dozen bytes, encodes in one
// allocation, attributes or not, and decodes in ten, and routing one
// allocates nothing.
func TestRecordCost(t *testing.T) {
	rec := cutOp()
	data := mustEncode(t, rec)
	if extra := len(data) - len(rec.Name) - len(rec.Op) - len(rec.Params); extra > 12 {
		t.Errorf("a cut's record is %d bytes, %d more than its name, operator and parameters; want at most 12", len(data), extra)
	}
	if n := testing.AllocsPerRun(100, func() { encodeOp(rec) }); n > 1 {
		t.Errorf("encoding a cut allocates %v times, want 1", n)
	}
	withAttrs := *rec
	withAttrs.Attrs = sixAttrs
	if n := testing.AllocsPerRun(100, func() { encodeOp(&withAttrs) }); n > 1 {
		t.Errorf("encoding a cut with six attributes allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { decodeOp(data) }); n > 10 {
		t.Errorf("decoding a cut allocates %v times, want at most 10", n)
	}
	for name, rec := range sampleOps() {
		data := mustEncode(t, rec)
		if n := testing.AllocsPerRun(100, func() { RecordInfo(data) }); n != 0 {
			t.Errorf("RecordInfo of the %s record allocates %v times, want 0", name, n)
		}
	}
}

// TestRecordRoutedByHeaderAlone: RecordInfo, replay's already-captured
// skip and a follower's duplicate skip read a record's header and never
// its body — a record whose body is damaged but whose seq says there is
// nothing to apply is skipped like any other.
func TestRecordRoutedByHeaderAlone(t *testing.T) {
	data := mustEncode(t, cutOp())
	_, body, err := peekOp(data)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(data[:len(data)-len(body):len(data)-len(body)], 0xff, 0xff, 0xff)
	if _, err := decodeOp(damaged); !errors.Is(err, ErrReplay) {
		t.Fatalf("the damaged record decodes: %v", err)
	}
	if seq, kind, _, err := RecordInfo(damaged); err != nil || seq != 8721 || kind != opDerived {
		t.Errorf("RecordInfo = seq %d, %s (%v), want the header's", seq, kind, err)
	}
	db := memDB()
	db.seq = 9000
	if seq, err := db.ApplyReplicated(damaged); err != nil || seq != 9000 {
		t.Errorf("ApplyReplicated of a duplicate = %d, %v; want it skipped at seq 9000", seq, err)
	}
	if rec, err := db.replayRecordLocked(9000, damaged); rec != nil || err != nil || db.recovery.JournalSkipped != 1 {
		t.Errorf("replay of a captured record: %v, %d skipped; want it skipped", err, db.recovery.JournalSkipped)
	}
	if _, err := db.replayRecordLocked(0, damaged); !errors.Is(err, ErrReplay) {
		t.Errorf("replay of the damaged record past the base: %v, want ErrReplay", err)
	}
}

// allocBytes reports the bytes f allocates: the least of up to three
// runs, retried while over bound, so that a background goroutine's
// allocation in one of them does not count.
func allocBytes(f func(), bound uint64) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzJournalRecordDecode feeds decodeOp arbitrary bytes. It must never
// panic; what it refuses it refuses as ErrReplay; what it allocates is
// bounded by the input's length, whatever counts the input claims; and
// what it accepts survives a re-encode: decode(encode(decode(x))) ==
// decode(x), with the header peek agreeing.
func FuzzJournalRecordDecode(f *testing.F) {
	for _, rec := range sampleOps() {
		f.Add(mustEncode(f, rec))
	}
	f.Add(append([]byte{recordLayout, 3, 1, 1, 0, 60}, make([]byte, 120)...)) // as many attributes as could fit
	if old, err := os.ReadFile("testdata/format_pr22/journal.000003.log"); err == nil {
		f.Add(old[12:]) // a gob record, past its WAL1 frame header
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A map sized for n attributes is the dearest thing a count buys:
		// some 80 bytes an entry, against the two a pair must occupy.
		bound := 1024 + 64*uint64(len(data))
		if n := allocBytes(func() { decodeOp(data) }, bound); n > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		rec, err := decodeOp(data)
		if err != nil {
			if !errors.Is(err, ErrReplay) {
				t.Fatalf("refused with %v, want ErrReplay", err)
			}
			return
		}
		if head, _, err := peekOp(data); err != nil || head.Seq != rec.Seq || head.Kind != rec.Kind || head.ID != rec.ID {
			t.Fatalf("peekOp = %+v (%v) of a record that decodes to %+v", head, err, rec)
		}
		again, err := decodeOp(mustEncode(t, rec))
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoded and decoded:\n%+v (%v)\nwant\n%+v", again, err, rec)
		}
	})
}

// sampleVersions is one payload record or more of every kind a snapshot
// holds, from a small catalog: a non-derived object with its
// descriptor, a cut, a composition with attributes and two sync
// constraints, an object tombstone, an interpretation registration of
// variable-size frames and an interpretation tombstone.
func sampleVersions(tb testing.TB) [][]byte {
	tb.Helper()
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(3, 7), IngestOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	cut, err := db.SelectDuration(clip, "cut", 0, 2)
	if err != nil {
		tb.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: clip, Region: &compose.Region{W: 4, H: 3}}, {Object: cut, Start: 40}}, sixAttrs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := errors.Join(db.AddSync(mm, 0, 1, 10), db.AddSync(mm, 1, 0, 20)); err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	add := func(data []byte, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	for _, id := range []core.ID{clip, cut, mm} {
		obj, err := db.Get(id)
		if err != nil {
			tb.Fatal(err)
		}
		add(appendVersion(nil, id, obj.Name, 9, obj))
	}
	add(appendVersion(nil, cut, "cut", 10, nil))
	obj, _ := db.Get(clip)
	it, err := db.Interpretation(obj.Blob)
	if err != nil {
		tb.Fatal(err)
	}
	add(appendInterpVersion(nil, obj.Blob, 1, it))
	add(appendInterpVersion(nil, obj.Blob, 11, nil))
	return out
}

// reencodeVersion lays a decoded payload record out again.
func reencodeVersion(t *testing.T, v version) []byte {
	t.Helper()
	var data []byte
	var err error
	switch v.Kind {
	case opInterp:
		if v.Interp, err = interp.AppendExported(nil, v.exp); err == nil {
			data, err = appendOp(nil, &v.walOp)
		}
	case opCollected:
		data, err = appendOp(nil, &v.walOp)
	default:
		data, err = appendVersion(nil, v.ID, v.Name, v.Seq, v.obj)
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVersionRoundTrip: every kind of payload record decodes to what was
// encoded, and re-encodes to the same bytes.
func TestVersionRoundTrip(t *testing.T) {
	db := memDB()
	clip, err := db.Ingest("clip", genVideo(3, 7), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Get(clip)
	v, err := decodeVersion(sampleVersions(t)[0])
	if err != nil || !reflect.DeepEqual(v.obj, want) || v.Seq != 9 {
		t.Errorf("decoded %+v at seq %d (%v), want %+v", v.obj, v.Seq, err, want)
	}
	for i, data := range sampleVersions(t) {
		v, err := decodeVersion(data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if again := reencodeVersion(t, v); !bytes.Equal(again, data) {
			t.Errorf("record %d (%s): re-encoded\n% x\nwant\n% x", i, v.Kind, again, data)
		}
	}
	if _, err := decodeVersion(mustEncode(t, sampleOps()["sync"])); !errors.Is(err, ErrReplay) {
		t.Errorf("a sync record decoded as a version: %v", err)
	}
}

// FuzzVersionRecordDecode feeds decodeVersion arbitrary bytes. It must
// never panic; what it refuses it refuses as ErrReplay; what it
// allocates is bounded by the input's length; and what it accepts
// re-encodes to bytes that decode and re-encode to themselves.
func FuzzVersionRecordDecode(f *testing.F) {
	for _, data := range sampleVersions(f) {
		f.Add(data)
	}
	f.Add(mustEncode(f, cutOp()))
	f.Add([]byte{recordLayout, 7, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 4096 + 64*uint64(len(data))
		if n := allocBytes(func() { decodeVersion(data) }, bound); n > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		v, err := decodeVersion(data)
		if err != nil {
			if !errors.Is(err, ErrReplay) {
				t.Fatalf("refused with %v, want ErrReplay", err)
			}
			return
		}
		canon := reencodeVersion(t, v)
		again, err := decodeVersion(canon)
		if err != nil || !bytes.Equal(reencodeVersion(t, again), canon) {
			t.Fatalf("re-encoded record does not decode to itself (%v)", err)
		}
	})
}

func headBytes(h *streamHead) []byte {
	c := interp.Coder{}
	codeHead(&c, h)
	return c.Buf
}

// FuzzStreamHeadDecode feeds decodeHead arbitrary bytes: no panic, an
// ErrReplay refusal, allocation bounded by the input's length, and
// what it accepts survives a re-encode.
func FuzzStreamHeadDecode(f *testing.F) {
	f.Add(headBytes(&streamHead{}))
	f.Add(headBytes(&streamHead{FromSeq: 7, Seq: 1 << 40, NextID: 12, NextBlob: 3,
		DelObjects: []core.ID{1, 5, 9}, DelInterps: []blob.ID{2}, VerFloor: 6, NumRecords: 1 << 20}))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 1024 + 16*uint64(len(data))
		if n := allocBytes(func() { decodeHead(data) }, bound); n > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		h, err := decodeHead(data)
		if err != nil {
			if !errors.Is(err, ErrReplay) {
				t.Fatalf("refused with %v, want ErrReplay", err)
			}
			return
		}
		if again, err := decodeHead(headBytes(&h)); err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("re-encoded head decodes to %+v (%v), want %+v", again, err, h)
		}
	})
}
