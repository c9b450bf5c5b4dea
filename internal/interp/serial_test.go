package interp

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/media"
	"timedmedia/internal/stream"
	"timedmedia/internal/timebase"
)

// runCase is one interpretation the builders can make, with what its
// one track "t" packs into.
type runCase struct {
	name string
	it   *Interpretation
	b    blob.BLOB
	runs int
	// regular: the placement is as computable as the timing (fixed-size
	// elements, contiguous or at a fixed interleave, stored in
	// presentation order, one element descriptor), so a uniform stream
	// must come out as one run.
	regular bool
}

// runCases builds one interpretation per Figure 1 shape.
func runCases(t testing.TB) []runCase {
	t.Helper()
	var cases []runCase
	add := func(name string, runs int, regular bool, build func(bu *Builder)) {
		t.Helper()
		id, b, err := blob.NewMemStore().Create()
		if err != nil {
			t.Fatal(err)
		}
		bu := NewBuilder(id, b)
		build(bu)
		it, err := bu.Seal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, runCase{name, it, b, runs, regular})
	}
	none := media.ElementDescriptor{}
	key := media.ElementDescriptor{Key: true}
	cd := media.CDAudioType()
	raw := media.RawVideoType(2, 2, timebase.PAL) // 12-byte frames
	anim := media.AnimationType(8, 8, timebase.PAL)
	vjpg := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVJPG)
	vmpg := media.PALVideoType(8, 8, media.QualityVHS, media.EncodingVMPG)

	add("uniform continuous", 1, true, func(bu *Builder) {
		bu.AddTrack("t", cd, cd.NewDescriptor(50))
		for i := 0; i < 50; i++ {
			bu.Append("t", []byte{1, 2, 3, byte(i)}, int64(i), 1, none)
		}
	})
	add("constant frequency, not continuous", 1, true, func(bu *Builder) {
		bu.AddTrack("t", anim, anim.NewDescriptor(100))
		for i := 0; i < 20; i++ {
			bu.Append("t", []byte{byte(i), 0, 0}, int64(5*i), 2, none) // three ticks at rest after each
		}
	})
	add("interleaved with padding", 1, true, func(bu *Builder) {
		bu.AddTrack("t", raw, raw.NewDescriptor(10)).AddTrack("a", cd, cd.NewDescriptor(10))
		for i := 0; i < 10; i++ {
			bu.Append("t", bytes.Repeat([]byte{byte(i)}, 12), int64(i), 1, none)
			bu.Append("a", []byte{9, 9, 9, byte(i)}, int64(i), 1, none)
			bu.Pad(16)
		}
	})
	add("irregular padding", 3, false, func(bu *Builder) {
		bu.AddTrack("t", cd, cd.NewDescriptor(6))
		for i := 0; i < 6; i++ {
			bu.Append("t", []byte{1, 2, 3, byte(i)}, int64(i), 1, none).Pad(i / 2) // strides 4, 5, 5, 6, 6
		}
	})
	add("variable element size", 5, false, func(bu *Builder) {
		bu.AddTrack("t", vjpg, vjpg.NewDescriptor(5))
		for i := 0; i < 5; i++ {
			bu.Append("t", make([]byte, 10+i), int64(i), 1, none)
		}
	})
	add("out-of-order storage", 5, false, func(bu *Builder) {
		// The paper's 1,4,2,3 twice over: keys before their intermediates.
		bu.AddTrack("t", vmpg, vmpg.NewDescriptor(7))
		for _, p := range []int{0, 3, 1, 2, 6, 4, 5} {
			desc := none
			if p%3 == 0 {
				desc = key
			}
			bu.Append("t", []byte{byte(p), 1}, int64(p), 1, desc)
		}
	})
	add("multi-layer scalable", 1, true, func(bu *Builder) {
		bu.AddTrack("t", vjpg, vjpg.NewDescriptor(8))
		for i := 0; i < 8; i++ {
			bu.AppendLayered("t", [][]byte{make([]byte, 10), make([]byte, 30), make([]byte, 7)}, int64(i), 1, none)
		}
	})
	add("empty enhancement layer", 4, false, func(bu *Builder) {
		bu.AddTrack("t", vjpg, vjpg.NewDescriptor(4))
		for i := 0; i < 4; i++ {
			bu.AppendLayered("t", [][]byte{make([]byte, 10), nil}, int64(i), 1, none)
		}
	})
	midi := media.MIDIType()
	add("event-based", 3, false, func(bu *Builder) {
		bu.AddTrack("t", midi, midi.NewDescriptor(960))
		// A chord (stride 0), two notes a beat apart, a longer message.
		for i, tick := range []int64{0, 0, 480, 960, 960} {
			bu.Append("t", make([]byte, 3+i/4), tick, 0, none)
		}
	})
	add("one element", 1, true, func(bu *Builder) {
		bu.AddTrack("t", cd, cd.NewDescriptor(1)).Append("t", []byte{1, 2, 3, 4}, 0, 1, none)
	})
	add("empty track", 0, true, func(bu *Builder) {
		bu.AddTrack("t", cd, cd.NewDescriptor(0))
	})
	return cases
}

// sameTables fails the test unless got holds, element by element, what
// want holds: timing, size, descriptor, every layer placement, storage
// index, and the indexes derived from them.
func sameTables(t testing.TB, name string, got, want *Interpretation) {
	t.Helper()
	if got.BlobID() != want.BlobID() || !reflect.DeepEqual(got.TrackNames(), want.TrackNames()) {
		t.Fatalf("%s: %v %v, want %v %v", name, got.BlobID(), got.TrackNames(), want.BlobID(), want.TrackNames())
	}
	for _, tn := range want.TrackNames() {
		g, w := got.MustTrack(tn), want.MustTrack(tn)
		if g.Len() != w.Len() || g.MediaType().Name != w.MediaType().Name || !reflect.DeepEqual(g.Descriptor(), w.Descriptor()) {
			t.Fatalf("%s: track %q: %d elements of %v, want %d of %v", name, tn, g.Len(), g.MediaType(), w.Len(), w.MediaType())
		}
		for i := 0; i < w.Len(); i++ {
			if g.str.At(i) != w.str.At(i) || !reflect.DeepEqual(g.layers[i], w.layers[i]) || g.storageOf[i] != w.storageOf[i] {
				t.Fatalf("%s: %s[%d] = %+v at %v stored %d, want %+v at %v stored %d", name, tn, i,
					g.str.At(i), g.layers[i], g.storageOf[i], w.str.At(i), w.layers[i], w.storageOf[i])
			}
		}
		if !reflect.DeepEqual(g.DecodeOrder(), w.DecodeOrder()) || !reflect.DeepEqual(g.KeyElements(), w.KeyElements()) ||
			!reflect.DeepEqual(g.Chunks(), w.Chunks()) || g.TotalBytes() != w.TotalBytes() {
			t.Fatalf("%s: track %q: derived indexes differ", name, tn)
		}
	}
}

func layoutBytes(t testing.TB, rec *Exported) []byte {
	t.Helper()
	data, err := AppendExported(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunRoundTripProperty: over every stream shape the builders make,
// Import(Export(it)) is it, element by element, and exports to the same
// bytes; and a track is one run with stride = duration exactly when the
// classifier calls its stream uniform and continuous (given a placement
// as regular as the timing).
func TestRunRoundTripProperty(t *testing.T) {
	for _, tc := range runCases(t) {
		rec := Export(tc.it)
		got, err := Import(rec, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameTables(t, tc.name, got, tc.it)
		again := Export(got)
		if !bytes.Equal(layoutBytes(t, again), layoutBytes(t, rec)) {
			t.Errorf("%s: re-export differs:\n%+v\nwant\n%+v", tc.name, again, rec)
		}

		runs := rec.Tracks[0].Runs
		if len(runs) != tc.runs {
			t.Errorf("%s: %d runs, want %d: %+v", tc.name, len(runs), tc.runs, runs)
		}
		n := 0
		for _, r := range runs {
			n += r.N
		}
		if n != tc.it.MustTrack("t").Len() {
			t.Errorf("%s: runs hold %d elements, the track %d", tc.name, n, tc.it.MustTrack("t").Len())
		}
		oneRun := len(runs) == 1 && runs[0].Gap == 0 && runs[0].Dur > 0
		uniform := tc.it.MustTrack("t").Stream().Classify().Has(stream.Uniform | stream.Continuous)
		if oneRun && !uniform {
			t.Errorf("%s: one run with stride = duration, classified %v", tc.name, tc.it.MustTrack("t").Stream().Classify())
		}
		if tc.regular && uniform && !oneRun {
			t.Errorf("%s: uniform, continuous and regularly placed, packed as %+v", tc.name, runs)
		}
	}
}

// TestRunGaps: what a run's gaps say about timing and placement.
func TestRunGaps(t *testing.T) {
	runsOf := map[string][]Run{}
	for _, tc := range runCases(t) {
		rec := Export(tc.it)
		runsOf[tc.name] = rec.Tracks[0].Runs
	}
	for name, want := range map[string]Run{
		"uniform continuous":                 {N: 50, Dur: 1, Layers: []LayerRun{{0, 4, 0}}},
		"constant frequency, not continuous": {N: 20, Dur: 2, Gap: 3, Layers: []LayerRun{{0, 3, 0}}},
		"interleaved with padding":           {N: 10, Dur: 1, Layers: []LayerRun{{0, 12, 20}}},
		"multi-layer scalable":               {N: 8, Dur: 1, Layers: []LayerRun{{0, 10, 37}, {10, 30, 17}, {40, 7, 40}}},
		"one element":                        {N: 1, Dur: 1, Layers: []LayerRun{{0, 4, 0}}},
	} {
		if got := runsOf[name]; len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: runs %+v, want %+v", name, got, want)
		}
	}
	ooo := runsOf["out-of-order storage"]
	if ooo[1].N != 2 || ooo[1].Start != 1 || ooo[1].StorageIndex != 2 || ooo[2].StorageIndex != 1 {
		t.Errorf("out-of-order storage: %+v", ooo)
	}
}

// hostileFixture is a BLOB of 1 MiB whose first bytes are ten 12-byte
// frames interleaved with ten 4-byte samples; the rest is padding, so
// that a run may claim a million elements inside the BLOB.
func hostileFixture(t testing.TB) (*Interpretation, blob.BLOB) {
	t.Helper()
	id, b, err := blob.NewMemStore().Create()
	if err != nil {
		t.Fatal(err)
	}
	raw, cd := media.RawVideoType(2, 2, timebase.PAL), media.CDAudioType()
	bu := NewBuilder(id, b).AddTrack("v", raw, raw.NewDescriptor(10)).AddTrack("a", cd, cd.NewDescriptor(10))
	for i := 0; i < 10; i++ {
		bu.Append("v", make([]byte, 12), int64(i), 1, media.ElementDescriptor{})
		bu.Append("a", make([]byte, 4), int64(i), 1, media.ElementDescriptor{})
	}
	it, err := bu.Pad(1<<20 - 160).Seal()
	if err != nil {
		t.Fatal(err)
	}
	return it, b
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestImportRejectsBadPlacement: a run's last element must end inside
// the BLOB, whichever of its fields pushes it out.
func TestImportRejectsBadPlacement(t *testing.T) {
	it, b := hostileFixture(t)
	for name, damage := range map[string]func(r *Run){
		"length beyond the BLOB":          func(r *Run) { r.Layers[0].Len = 1 << 40 },
		"offset beyond the BLOB":          func(r *Run) { r.Layers[0].Offset = 1 << 20 },
		"offset + N*stride past the BLOB": func(r *Run) { r.Layers[0].Gap = 1 << 17 },
		"N = 1<<40":                       func(r *Run) { r.N = 1 << 40 },
		"offset stride near MaxInt64":     func(r *Run) { r.Layers[0].Gap = math.MaxInt64 - 12 },
		"offset and length near MaxInt64": func(r *Run) { r.Layers[0] = LayerRun{Offset: math.MaxInt64 - 3, Len: math.MaxInt64} },
	} {
		rec := Export(it)
		damage(&rec.Tracks[0].Runs[0])
		var ierr error
		if n := allocated(func() { _, ierr = Import(rec, b) }); !errors.Is(ierr, ErrBeyondBlob) || n > 16<<10 {
			t.Errorf("%s: err = %v after allocating %d B", name, ierr, n)
		}
	}
}

// TestImportRejectsMalformedRecord: a record comes back from disk, so
// what the table and index builders would index out of range on, or
// size an allocation by, is an error — returned before anything
// proportional to a run's N is allocated.
func TestImportRejectsMalformedRecord(t *testing.T) {
	it, b := hostileFixture(t)
	for name, damage := range map[string]func(r *Exported){
		"storage index out of range": func(r *Exported) { r.Tracks[0].Runs[0].StorageIndex = 1 },
		"negative storage index":     func(r *Exported) { r.Tracks[0].Runs[0].StorageIndex = -1 },
		"element without placement":  func(r *Exported) { r.Tracks[0].Runs[0].Layers = nil },
		"a track twice":              func(r *Exported) { r.Tracks = append(r.Tracks, r.Tracks[1]) },
		"a track without descriptor": func(r *Exported) { r.Tracks[1].Desc = nil },
		"empty run":                  func(r *Exported) { r.Tracks[0].Runs[0].N = 0 },
		"negative N":                 func(r *Exported) { r.Tracks[0].Runs[0].N = -5 },
		"element count overflows": func(r *Exported) {
			r.Tracks[0].Runs = append(r.Tracks[0].Runs, Run{N: math.MaxInt, Layers: []LayerRun{{}}})
		},
		"negative start stride":   func(r *Exported) { r.Tracks[0].Runs[0].Gap = -2 },
		"negative duration":       func(r *Exported) { r.Tracks[0].Runs[0].Dur, r.Tracks[0].Runs[0].Gap = -1, 1 },
		"start stride overflows":  func(r *Exported) { r.Tracks[0].Runs[0].Gap = math.MaxInt64 },
		"start times overflow":    func(r *Exported) { r.Tracks[0].Runs[0].Gap = math.MaxInt64 / 2 },
		"negative offset":         func(r *Exported) { r.Tracks[0].Runs[0].Layers[0].Offset = -12 },
		"negative length":         func(r *Exported) { r.Tracks[0].Runs[0].Layers[0].Len = -1 },
		"stride under length":     func(r *Exported) { r.Tracks[0].Runs[0].Layers[0].Gap = -1 },
		"offset stride overflows": func(r *Exported) { r.Tracks[0].Runs[0].Layers[0].Gap = math.MaxInt64 },
		"empty placements, huge N": func(r *Exported) {
			r.Tracks[0].Runs[0].N, r.Tracks[0].Runs[0].Layers[0] = 1<<40, LayerRun{}
		},
		"a million elements over another track's bytes": func(r *Exported) {
			r.Tracks[0].Runs[0].N, r.Tracks[0].Runs[0].Layers[0] = 1<<20, LayerRun{Offset: 0, Len: 1}
		},
	} {
		rec := Export(it)
		damage(rec)
		var ierr error
		if n := allocated(func() { _, ierr = Import(rec, b) }); ierr == nil || n > 16<<10 {
			t.Errorf("%s: err = %v after allocating %d B", name, ierr, n)
		}
	}
}

// TestImportRejectsOverlap: placements that claim the same bytes are
// refused by name, whether the runs' extents nest, interleave or
// coincide, and however far into the runs the offenders are.
func TestImportRejectsOverlap(t *testing.T) {
	it, b := hostileFixture(t)
	extra := func(off int64) Run { // an eleventh sample
		return Run{N: 1, Start: 10, Dur: 1, Layers: []LayerRun{{off, 4, 0}}, StorageIndex: 10}
	}
	for name, tc := range map[string]struct {
		damage func(v, a *ExportedTrack)
		who    []string
	}{
		"interleaved runs, every pair collides":     {func(v, a *ExportedTrack) { a.Runs[0].Layers[0].Offset = 11 }, []string{"v[0] and a[0]"}},
		"a run of one inside another run's element": {func(v, a *ExportedTrack) { a.Runs = append(a.Runs, extra(85)) }, []string{"v[5] and a[10]"}},
		"a run of one inside its own track's run":   {func(v, a *ExportedTrack) { a.Runs = append(a.Runs, extra(29)) }, []string{"a[1] and a[10]"}},
		"the same bytes twice":                      {func(v, a *ExportedTrack) { a.Runs[0].Layers[0] = v.Runs[0].Layers[0] }, []string{"v[0]", "a[0]"}},
		"two layers of one element": {func(v, a *ExportedTrack) {
			v.Runs[0].Layers = append(v.Runs[0].Layers, LayerRun{6, 6, 10})
		}, []string{"v[0] and v[0]"}},
		"a drift that takes four elements to collide": {func(v, a *ExportedTrack) {
			a.Runs[0].Layers[0] = LayerRun{Offset: 12, Len: 1, Gap: 16} // 12, 29, 46, 63 sit in the gaps; 80 is v[5]'s first byte
		}, []string{"v[5]", "a[4]"}},
	} {
		rec := Export(it)
		tc.damage(&rec.Tracks[0], &rec.Tracks[1])
		_, err := Import(rec, b)
		if !errors.Is(err, ErrOverlap) {
			t.Errorf("%s: err = %v, want ErrOverlap", name, err)
			continue
		}
		for _, who := range tc.who {
			if !strings.Contains(err.Error(), who) {
				t.Errorf("%s: %v does not name %s", name, err, who)
			}
		}
	}
}

// FuzzInterpImport decodes arbitrary bytes as an interpretation record
// (DecodeExported) and imports what decodes over a fixed 4 KiB BLOB.
// Neither may panic, and neither may allocate past a budget set by the
// record's own length (and, for Import, the BLOB's); a record that
// decodes re-encodes to bytes that decode and re-encode to themselves,
// and what Import accepts must survive export and import unchanged.
func FuzzInterpImport(f *testing.F) {
	for _, tc := range runCases(f) {
		f.Add(layoutBytes(f, Export(tc.it)))
	}
	hostile, _ := hostileFixture(f)
	rec := Export(hostile)
	rec.Tracks[0].Runs[0].N = 1 << 40
	f.Add(layoutBytes(f, rec))

	id, b, err := blob.NewMemStore().Create()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := b.Append(make([]byte, 4<<10)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *Exported
		var err error
		if n := allocated(func() { rec, err = DecodeExported(data, id) }); n > 4<<10+64*uint64(len(data)) {
			t.Fatalf("DecodeExported allocated %d B for a %d B record (err %v)", n, len(data), err)
		}
		if err != nil {
			return
		}
		canon := layoutBytes(t, rec)
		again, err := DecodeExported(canon, id)
		if err != nil || !bytes.Equal(layoutBytes(t, again), canon) {
			t.Fatalf("re-encoded record does not decode to itself (%v)", err)
		}
		var it *Interpretation
		if n := allocated(func() { it, err = Import(rec, b) }); n > 4<<20+256*uint64(len(data)) {
			t.Fatalf("Import allocated %d B for a %d B record (err %v)", n, len(data), err)
		}
		if err != nil {
			return
		}
		packed := Export(it)
		back, err := Import(packed, b)
		if err != nil {
			t.Fatalf("re-import of an accepted record: %v", err)
		}
		sameTables(t, "re-import", back, it)
		if repacked := Export(back); !bytes.Equal(layoutBytes(t, repacked), layoutBytes(t, packed)) {
			t.Fatalf("export is not a fixed point:\n%+v\nthen\n%+v", packed, repacked)
		}
	})
}
