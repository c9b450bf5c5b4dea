package interp

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// buildAV constructs a small interleaved audio/video interpretation in
// the shape of Figure 2: per video frame, the frame payload then its
// audio block.
func buildAV(t *testing.T, frames int) (*Interpretation, blob.Store) {
	t.Helper()
	store := blob.NewMemStore()
	id, b, err := store.Create()
	if err != nil {
		t.Fatal(err)
	}
	vType := media.PALVideoType(64, 48, media.QualityVHS, media.EncodingVJPG)
	aType := media.ADPCMAudioType(1764)
	bu := NewBuilder(id, b).
		AddTrack("video1", vType, vType.NewDescriptor(int64(frames))).
		AddTrack("audio1", aType, aType.NewDescriptor(int64(frames)*1764))
	for i := 0; i < frames; i++ {
		vb := bytes.Repeat([]byte{byte(i)}, 100+i) // variable-size frames
		ab := bytes.Repeat([]byte{0xAA}, 50)
		bu.Append("video1", vb, int64(i), 1, media.ElementDescriptor{})
		bu.Append("audio1", ab, int64(i)*1764, 1764, media.ElementDescriptor{})
	}
	it, err := bu.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return it, store
}

func TestSealAndTrackAccess(t *testing.T) {
	it, _ := buildAV(t, 10)
	names := it.TrackNames()
	if len(names) != 2 || names[0] != "video1" || names[1] != "audio1" {
		t.Fatalf("tracks = %v", names)
	}
	v := it.MustTrack("video1")
	if v.Len() != 10 {
		t.Errorf("video elements = %d", v.Len())
	}
	if _, err := it.Track("nope"); !errors.Is(err, ErrNoTrack) {
		t.Errorf("missing track: %v", err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	it, _ := buildAV(t, 5)
	for i := 0; i < 5; i++ {
		got, err := it.Payload("video1", i)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 100+i)
		if !bytes.Equal(got, want) {
			t.Errorf("payload %d = %d bytes of %v", i, len(got), got[0])
		}
	}
	if _, err := it.Payload("video1", 99); !errors.Is(err, ErrNoElement) {
		t.Errorf("oob: %v", err)
	}
}

func TestInterleavedPlacements(t *testing.T) {
	// Audio element i must be placed directly after video element i —
	// the Figure 2 interleave.
	it, _ := buildAV(t, 5)
	v := it.MustTrack("video1")
	a := it.MustTrack("audio1")
	for i := 0; i < 5; i++ {
		vp, _ := v.Placement(i)
		ap, _ := a.Placement(i)
		if ap.Offset != vp.End() {
			t.Errorf("element %d: audio at %d, video ends %d", i, ap.Offset, vp.End())
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.CDAudioType()
	// Duplicate track.
	_, err := NewBuilder(id, b).
		AddTrack("a", ty, ty.NewDescriptor(0)).
		AddTrack("a", ty, ty.NewDescriptor(0)).Seal()
	if !errors.Is(err, ErrDupTrack) {
		t.Errorf("dup: %v", err)
	}
	// Unknown track on Append.
	_, err = NewBuilder(id, b).Append("ghost", []byte{1}, 0, 1, media.ElementDescriptor{}).Seal()
	if !errors.Is(err, ErrNoTrack) {
		t.Errorf("ghost: %v", err)
	}
	// Nil descriptor.
	_, err = NewBuilder(id, b).AddTrack("x", ty, nil).Seal()
	if !errors.Is(err, ErrBadDescriptor) {
		t.Errorf("nil desc: %v", err)
	}
	// Empty layers.
	_, err = NewBuilder(id, b).AddTrack("x", ty, ty.NewDescriptor(0)).
		AppendLayered("x", nil, 0, 1, media.ElementDescriptor{}).Seal()
	if err == nil {
		t.Error("empty layers must fail")
	}
}

func TestSealValidatesStreamConstraints(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.CDAudioType() // requires d=1, size=4, continuous
	_, err := NewBuilder(id, b).
		AddTrack("a", ty, ty.NewDescriptor(2)).
		Append("a", []byte{1, 2, 3, 4}, 0, 1, media.ElementDescriptor{}).
		Append("a", []byte{1, 2, 3}, 1, 1, media.ElementDescriptor{}). // wrong size
		Seal()
	if err == nil {
		t.Error("constraint violation must fail Seal")
	}
}

func TestOutOfOrderAppendSortsPresentation(t *testing.T) {
	// Append in the paper's storage order 1,4,2,3 (0-based 0,3,1,2);
	// presentation order must come out sorted and the decode-order
	// index must reproduce the storage order.
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVMPG)
	key := media.ElementDescriptor{Key: true}
	it, err := NewBuilder(id, b).
		AddTrack("v", ty, ty.NewDescriptor(4)).
		Append("v", []byte("e0"), 0, 1, key).
		Append("v", []byte("e3"), 3, 1, key).
		Append("v", []byte("e1"), 1, 1, media.ElementDescriptor{}).
		Append("v", []byte("e2"), 2, 1, media.ElementDescriptor{}).
		Seal()
	if err != nil {
		t.Fatal(err)
	}
	tr := it.MustTrack("v")
	for i := 0; i < 4; i++ {
		data, _ := it.Payload("v", i)
		if string(data) != string(rune('e'))+string(rune('0'+i)) {
			t.Errorf("payload %d = %q", i, data)
		}
	}
	order := tr.DecodeOrder()
	want := []int{0, 3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("decode order = %v, want %v", order, want)
		}
	}
	si, _ := tr.StorageIndex(3)
	if si != 1 {
		t.Errorf("storage index of element 3 = %d", si)
	}
}

func TestKeyIndexAndKeyBefore(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVMPG)
	bu := NewBuilder(id, b).AddTrack("v", ty, ty.NewDescriptor(10))
	for i := 0; i < 10; i++ {
		desc := media.ElementDescriptor{Key: i%4 == 0}
		bu.Append("v", []byte{byte(i)}, int64(i), 1, desc)
	}
	it, err := bu.Seal()
	if err != nil {
		t.Fatal(err)
	}
	tr := it.MustTrack("v")
	keys := tr.KeyElements()
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 4 || keys[2] != 8 {
		t.Fatalf("keys = %v", keys)
	}
	if k, ok := tr.KeyBefore(6); !ok || k != 4 {
		t.Errorf("KeyBefore(6) = %d,%v", k, ok)
	}
	if k, ok := tr.KeyBefore(0); !ok || k != 0 {
		t.Errorf("KeyBefore(0) = %d,%v", k, ok)
	}
}

func TestSizePrefix(t *testing.T) {
	it, _ := buildAV(t, 5)
	v := it.MustTrack("video1")
	if v.BytesBefore(0) != 0 {
		t.Errorf("BytesBefore(0) = %d", v.BytesBefore(0))
	}
	// Sizes are 100,101,102,103,104.
	if v.BytesBefore(3) != 100+101+102 {
		t.Errorf("BytesBefore(3) = %d", v.BytesBefore(3))
	}
	if v.TotalBytes() != 510 {
		t.Errorf("TotalBytes = %d", v.TotalBytes())
	}
	if v.BytesBefore(-1) != 0 || v.BytesBefore(100) != 510 {
		t.Error("clamping failed")
	}
}

func TestChunkMap(t *testing.T) {
	// Interleaved A/V: every element is its own chunk (no contiguity
	// within a track).
	it, _ := buildAV(t, 4)
	v := it.MustTrack("video1")
	if got := len(v.Chunks()); got != 4 {
		t.Errorf("video chunks = %d, want 4 (interleaving breaks contiguity)", got)
	}
	// A separated layout: one chunk.
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.CDAudioType()
	bu := NewBuilder(id, b).AddTrack("a", ty, ty.NewDescriptor(8))
	for i := 0; i < 8; i++ {
		bu.Append("a", []byte{1, 2, 3, 4}, int64(i), 1, media.ElementDescriptor{})
	}
	it2, err := bu.Seal()
	if err != nil {
		t.Fatal(err)
	}
	chunks := it2.MustTrack("a").Chunks()
	if len(chunks) != 1 || chunks[0].Count != 8 || chunks[0].Size != 32 {
		t.Errorf("chunks = %+v", chunks)
	}
}

func TestPadding(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.CDAudioType()
	it, err := NewBuilder(id, b).
		AddTrack("a", ty, ty.NewDescriptor(2)).
		Append("a", []byte{1, 2, 3, 4}, 0, 1, media.ElementDescriptor{}).
		Pad(128). // CD-I style padding between elements
		Append("a", []byte{5, 6, 7, 8}, 1, 1, media.ElementDescriptor{}).
		Seal()
	if err != nil {
		t.Fatal(err)
	}
	if it.BlobSize() != 4+128+4 {
		t.Errorf("blob size = %d", it.BlobSize())
	}
	// Payload reads skip padding transparently.
	p, _ := it.Payload("a", 1)
	if !bytes.Equal(p, []byte{5, 6, 7, 8}) {
		t.Errorf("payload = %v", p)
	}
}

// TestBuilderHoldsAppends: appended bytes reach the BLOB in large
// appends, not one per element. Small payloads are held (the BLOB does
// not grow, Size does) until Seal writes them in one append; a payload
// of maxHeld bytes or more goes straight through after what is held;
// the BLOB never lags Size by more than maxHeld; and every placement
// reads back its own payload.
func TestBuilderHoldsAppends(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.PALVideoType(64, 48, media.QualityVHS, media.EncodingVJPG)
	bu := NewBuilder(id, b).AddTrack("a", ty, ty.NewDescriptor(0))
	var want [][]byte
	add := func(p []byte) {
		t.Helper()
		bu.Append("a", p, int64(len(want)), 1, media.ElementDescriptor{})
		want = append(want, p)
	}
	appends := func() int64 { _, _, n, _ := store.Stats().Snapshot(); return n }

	for i := 0; i < 100; i++ {
		add(bytes.Repeat([]byte{byte(i)}, 10))
	}
	bu.Pad(24)
	if b.Size() != 0 || bu.Size() != 1024 || appends() != 0 {
		t.Fatalf("after 1000 B of elements and 24 of padding: BLOB %d B, Size %d, %d appends", b.Size(), bu.Size(), appends())
	}
	add(bytes.Repeat([]byte{0xBB}, maxHeld)) // straight through, after the held bytes
	if b.Size() != 1024+maxHeld || appends() != 2 {
		t.Fatalf("after a %d B payload: BLOB %d B, %d appends", maxHeld, b.Size(), appends())
	}
	for i := 0; i < 7; i++ {
		add(bytes.Repeat([]byte{byte(i)}, maxHeld/3+1))
		if lag := bu.Size() - b.Size(); lag < 0 || lag > maxHeld {
			t.Fatalf("BLOB lags Size by %d B", lag)
		}
	}
	it, err := bu.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != bu.Size() || it.BlobSize() != bu.Size() {
		t.Fatalf("sealed: BLOB %d B, Size %d", b.Size(), bu.Size())
	}
	if appends() > 6 {
		t.Errorf("%d appends for %d elements", appends(), len(want))
	}
	for i, w := range want {
		got, err := it.Payload("a", i)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("element %d: read %d B, want %d (%v)", i, len(got), len(w), err)
		}
	}
}

// TestBuilderChecksPlacement: a BLOB that puts held bytes somewhere
// other than where the placements say — here another writer appended
// first — fails Seal with ErrMisplaced rather than sealing placements
// over the wrong bytes.
func TestBuilderChecksPlacement(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.CDAudioType()
	bu := NewBuilder(id, b).AddTrack("a", ty, ty.NewDescriptor(0)).
		Append("a", []byte{1, 2, 3, 4}, 0, 1, media.ElementDescriptor{})
	b.Append([]byte("intruder"))
	if _, err := bu.Seal(); !errors.Is(err, ErrMisplaced) {
		t.Fatalf("Seal after a foreign append: %v, want ErrMisplaced", err)
	}
}

func TestLayeredPayloads(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVJPG)
	it, err := NewBuilder(id, b).
		AddTrack("v", ty, ty.NewDescriptor(1)).
		AppendLayered("v", [][]byte{[]byte("base"), []byte("enhance")}, 0, 1, media.ElementDescriptor{}).
		Seal()
	if err != nil {
		t.Fatal(err)
	}
	tr := it.MustTrack("v")
	if tr.Layers(0) != 2 {
		t.Fatalf("layers = %d", tr.Layers(0))
	}
	baseOnly, err := it.PayloadLayers("v", 0, 0)
	if err != nil || len(baseOnly) != 1 || string(baseOnly[0]) != "base" {
		t.Errorf("base = %v err=%v", baseOnly, err)
	}
	all, err := it.PayloadLayers("v", 0, -1)
	if err != nil || len(all) != 2 || string(all[1]) != "enhance" {
		t.Errorf("all = %v err=%v", all, err)
	}
	if _, err := it.PayloadLayers("v", 0, 5); !errors.Is(err, ErrNoLayer) {
		t.Errorf("layer oob: %v", err)
	}
	full, _ := it.Payload("v", 0)
	if string(full) != "baseenhance" {
		t.Errorf("full = %q", full)
	}
}

func TestScaledReadTouchesFewerBytes(t *testing.T) {
	store := blob.NewMemStore()
	id, b, _ := store.Create()
	ty := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVJPG)
	bu := NewBuilder(id, b).AddTrack("v", ty, ty.NewDescriptor(10))
	for i := 0; i < 10; i++ {
		bu.AppendLayered("v", [][]byte{make([]byte, 100), make([]byte, 300)}, int64(i), 1, media.ElementDescriptor{})
	}
	it, err := bu.Seal()
	if err != nil {
		t.Fatal(err)
	}
	store.Stats().Reset()
	for i := 0; i < 10; i++ {
		if _, err := it.PayloadLayers("v", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, baseBytes, _, _ := store.Stats().Snapshot()
	store.Stats().Reset()
	for i := 0; i < 10; i++ {
		if _, err := it.PayloadLayers("v", i, -1); err != nil {
			t.Fatal(err)
		}
	}
	_, fullBytes, _, _ := store.Stats().Snapshot()
	if baseBytes != 1000 || fullBytes != 4000 {
		t.Errorf("base=%d full=%d", baseBytes, fullBytes)
	}
}

func TestElementAtAgreesWithScan(t *testing.T) {
	it, _ := buildAV(t, 20)
	tr := it.MustTrack("audio1")
	for _, tick := range []int64{0, 1763, 1764, 20000, 1764*20 - 1} {
		i1, ok1 := tr.ElementAt(tick)
		i2, ok2 := tr.ElementAtScan(tick)
		if i1 != i2 || ok1 != ok2 {
			t.Errorf("tick %d: index %d,%v scan %d,%v", tick, i1, ok1, i2, ok2)
		}
	}
	if _, ok := tr.ElementAt(1764 * 21); ok {
		t.Error("past-end lookup should miss")
	}
}

func TestView(t *testing.T) {
	it, _ := buildAV(t, 3)
	audioOnly, err := it.View("audio1")
	if err != nil {
		t.Fatal(err)
	}
	if len(audioOnly.TrackNames()) != 1 {
		t.Errorf("tracks = %v", audioOnly.TrackNames())
	}
	if _, err := audioOnly.Track("video1"); !errors.Is(err, ErrNoTrack) {
		t.Error("video1 must be hidden in the view")
	}
	// Payloads still readable through the shared BLOB.
	if _, err := audioOnly.Payload("audio1", 2); err != nil {
		t.Error(err)
	}
	if _, err := it.View("ghost"); !errors.Is(err, ErrNoTrack) {
		t.Errorf("ghost view: %v", err)
	}
}

func TestTrackStringTableShape(t *testing.T) {
	it, _ := buildAV(t, 3)
	v := it.MustTrack("video1").String()
	if !strings.Contains(v, "elementSize") {
		t.Errorf("variable-size track table = %q, want elementSize column", v)
	}
	// Uniform audio track: no elementSize column needed, matching the
	// paper's audio1(elementNumber, blobPlacement).
	a := it.MustTrack("audio1").String()
	if strings.Contains(a, "elementSize") {
		t.Errorf("uniform track table = %q", a)
	}
}

func TestInterpretationString(t *testing.T) {
	it, _ := buildAV(t, 2)
	s := it.String()
	for _, want := range []string{"video1", "audio1", "interpretation of"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	it, store := buildAV(t, 6)
	rec := Export(it)
	b, err := store.Open(it.BlobID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Import(rec, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlobID() != it.BlobID() {
		t.Errorf("blob id = %v", got.BlobID())
	}
	for _, name := range it.TrackNames() {
		a := it.MustTrack(name)
		z := got.MustTrack(name)
		if a.Len() != z.Len() || a.TotalBytes() != z.TotalBytes() {
			t.Errorf("track %q differs after round trip", name)
		}
		for i := 0; i < a.Len(); i++ {
			pa, _ := a.Placement(i)
			pz, _ := z.Placement(i)
			if pa != pz {
				t.Errorf("%s[%d] placement %v vs %v", name, i, pa, pz)
			}
			if a.Stream().At(i) != z.Stream().At(i) {
				t.Errorf("%s[%d] element differs", name, i)
			}
		}
		// Decode order survives.
		ao, zo := a.DecodeOrder(), z.DecodeOrder()
		for i := range ao {
			if ao[i] != zo[i] {
				t.Errorf("%s decode order differs", name)
			}
		}
	}
	// Payloads readable through the imported interpretation.
	p1, _ := it.Payload("video1", 3)
	p2, err := got.Payload("video1", 3)
	if err != nil || string(p1) != string(p2) {
		t.Errorf("payload differs after round trip: %v", err)
	}
}

// sizeCounter counts Size calls on a BLOB.
type sizeCounter struct {
	blob.BLOB
	calls int
}

func (s *sizeCounter) Size() int64 { s.calls++; return s.BLOB.Size() }

// TestImportReadsSizeOnce: Size is an fstat under a mutex on a file
// BLOB; Import must not pay it per placement.
func TestImportReadsSizeOnce(t *testing.T) {
	it, store := buildAV(t, 6)
	rec := Export(it)
	b, _ := store.Open(it.BlobID())
	sc := &sizeCounter{BLOB: b}
	if _, err := Import(rec, sc); err != nil {
		t.Fatal(err)
	}
	if sc.calls != 1 {
		t.Errorf("Import called Size %d times, want 1", sc.calls)
	}
}

// TestExportedDescriptorVariants: each of the five descriptor types,
// every field set, and no descriptor at all, come back from their
// layout as they went in, with the bytes after them untouched; a type
// or kind code the layout does not know is refused.
func TestExportedDescriptorVariants(t *testing.T) {
	pal := timebase.PAL
	for _, d := range []media.Descriptor{
		&media.Video{Quality: media.QualityVHS, FrameRate: pal, DurationTicks: 250, Width: 352, Height: 288, Depth: 16,
			Color: media.ColorYUV422, Encoding: media.EncodingVJPG, AvgDataRate: 1.5e6, PeakDataRate: math.Inf(1)},
		&media.Audio{Quality: media.QualityCD, SampleRate: timebase.CDAudio, DurationTicks: -1, SampleBits: 16, Channels: 2,
			Encoding: media.EncodingPCM, AvgDataRate: 176400},
		&media.Image{Quality: 3, Width: math.MaxInt32, Height: -7, Depth: 32, Color: media.ColorCMYK, Encoding: media.EncodingCMYKSep},
		&media.Music{Division: timebase.MustNew(480, 1), DurationTicks: math.MaxInt64, Channels: 16, TempoBPM: 0.1},
		&media.Animation{FrameRate: pal, DurationTicks: math.MinInt64, Width: 640, Height: 480},
		nil,
	} {
		enc := Coder{Buf: []byte{0xAA}}
		CodeDescriptor(&enc, &d)
		if enc.Err != nil {
			t.Fatalf("%T: %v", d, enc.Err)
		}
		var back media.Descriptor
		dec := Coder{Buf: append(enc.Buf[1:], 0xBB), Dec: true}
		CodeDescriptor(&dec, &back)
		if dec.Err != nil || !reflect.DeepEqual(back, d) || !bytes.Equal(dec.Buf, []byte{0xBB}) {
			t.Errorf("%T: read back %+v, %x left (%v)", d, back, dec.Buf, dec.Err)
		}
	}
	var other media.Descriptor = otherDescriptor{}
	enc := Coder{}
	if CodeDescriptor(&enc, &other); enc.Err == nil {
		t.Error("a descriptor type without a layout was encoded")
	}
	var back media.Descriptor
	dec := Coder{Buf: []byte{2 * (byte(media.KindAnimation) + 1)}, Dec: true} // zig-zag
	if CodeDescriptor(&dec, &back); dec.Err == nil {
		t.Error("an unknown kind code was read")
	}
}

// otherDescriptor is a video descriptor of a type the layout does not
// know.
type otherDescriptor struct{ media.Descriptor }

func (otherDescriptor) Kind() media.Kind { return media.KindVideo }

// TestIndexConsistencyProperty builds random single-track layouts and
// verifies that every index answers consistently with the element
// table — the invariant DESIGN.md §6 commits to.
func TestIndexConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%40) + 1
		store := blob.NewMemStore()
		id, b, err := store.Create()
		if err != nil {
			return false
		}
		ty := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVMPG)
		bu := NewBuilder(id, b).AddTrack("v", ty, ty.NewDescriptor(int64(n)))
		// Append in random storage order with random sizes and keys.
		order := rng.Perm(n)
		for _, p := range order {
			size := rng.Intn(64) + 1
			payload := make([]byte, size)
			payload[0] = byte(p)
			bu.Append("v", payload, int64(p), 1, media.ElementDescriptor{Key: rng.Intn(3) == 0})
		}
		it, err := bu.Seal()
		if err != nil {
			return false
		}
		tr := it.MustTrack("v")
		// (1) presentation order sorted by start time.
		var sum int64
		keyCount := 0
		for i := 0; i < tr.Len(); i++ {
			el := tr.Stream().At(i)
			if el.Start != int64(i) {
				return false
			}
			// (2) size prefix agrees with summation.
			if tr.BytesBefore(i) != sum {
				return false
			}
			sum += el.Size
			// (3) payload size agrees with placement size and element size.
			pl, err := tr.Placement(i)
			if err != nil || pl.Size != el.Size {
				return false
			}
			data, err := it.Payload("v", i)
			if err != nil || int64(len(data)) != el.Size || data[0] != byte(i) {
				return false
			}
			// (4) time index agrees.
			if idx, ok := tr.ElementAt(int64(i)); !ok || idx != i {
				return false
			}
			if el.Desc.Key {
				keyCount++
				// (5) key index returns self for keys.
				if k, ok := tr.KeyBefore(i); !ok || k != i {
					return false
				}
			}
		}
		if len(tr.KeyElements()) != keyCount {
			return false
		}
		// (6) decode order is a permutation matching append order.
		dec := tr.DecodeOrder()
		if len(dec) != n {
			return false
		}
		for pos, p := range order {
			if dec[pos] != p {
				return false
			}
		}
		// (7) chunk map covers each element's base exactly once.
		covered := 0
		for _, c := range tr.Chunks() {
			covered += c.Count
		}
		return covered == n
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
