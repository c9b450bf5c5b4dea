// Package integration exercises the whole stack end to end: capture →
// interpretation → catalog → derivation → composition → persistence →
// reload → playback, plus failure injection (truncated BLOBs, corrupt
// payloads, damaged catalogs).
package integration

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/anim"
	"timedmedia/internal/audio"
	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/frame"
	"timedmedia/internal/music"
	"timedmedia/internal/player"
	"timedmedia/internal/query"
	"timedmedia/internal/timebase"
)

// TestLifecycleOnDisk drives the full production workflow against a
// file-backed store, closes everything, reopens from disk, and
// verifies content.
func TestLifecycleOnDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New(store)

	// Capture.
	original := fixtures.Video(60, 64, 48, 33)
	clip, err := db.Ingest("clip", original, catalog.IngestOptions{Attrs: map[string]string{"take": "7"}})
	if err != nil {
		t.Fatal(err)
	}
	tone := audio.Sweep(44100, 2, 100, 2000, 44100, 0.5)
	song, err := db.Ingest("song", derive.AudioValue(tone, timebase.CDAudio), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Refine.
	cut, err := db.SelectDuration(clip, "cut", 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := db.AddDerived("rev", "video-reverse", []core.ID{cut}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Compose.
	show, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{
		{Object: rev, Start: 0},
		{Object: song, Start: 200},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddSync(show, 0, 1, 40); err != nil {
		t.Fatal(err)
	}

	// Persist and drop everything.
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload.
	store2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	db2, err := catalog.Load(dir, store2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 5 {
		t.Fatalf("reloaded %d objects", db2.Len())
	}

	// Content survives: expand the reversed cut and compare with the
	// original frames.
	v, err := db2.Expand(rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Video) != 40 {
		t.Fatalf("frames = %d", len(v.Video))
	}
	// rev[0] is clip frame 49 (cut selects [10,50), reversed).
	p, err := frame.PSNR(original.Video[49], v.Video[0])
	if err != nil {
		t.Fatal(err)
	}
	if p < 20 {
		t.Errorf("reloaded content PSNR = %.1f", p)
	}
	// Audio is bit-exact through PCM.
	av, err := db2.Expand(song)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(audio.SNR(tone, av.Audio), 1) {
		t.Error("audio not lossless after reload")
	}

	// Attributes and queries survive.
	if got := query.New(db2).Attr("take", "7").Count(); got != 1 {
		t.Errorf("attr query after reload = %d", got)
	}
	if got := query.UsedBy(db2, clip); len(got) != 3 { // cut, rev, show
		t.Errorf("usedBy after reload = %d", len(got))
	}

	// Playback after reload honors the composition.
	var sink player.Discard
	rep, err := player.PlayComposition(db2, show, &player.VirtualClock{}, &sink, player.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxJitter() != 0 || sink.Events == 0 {
		t.Errorf("playback: events=%d jitter=%v", sink.Events, rep.MaxJitter())
	}
}

// TestFigure4ContentCorrectness expands the Figure 4 pipeline and
// checks the edit boundaries frame by frame.
func TestFigure4ContentCorrectness(t *testing.T) {
	db := fixtures.NewMemDB()
	if _, err := fixtures.Figure4(db, 32, 48, 36); err != nil {
		t.Fatal(err)
	}
	video3, err := db.Lookup("video3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Expand(video3.ID)
	if err != nil {
		t.Fatal(err)
	}
	// cutLen=24, fadeLen=4, cut2=28 → 56 frames.
	if len(v.Video) != 56 {
		t.Fatalf("video3 frames = %d", len(v.Video))
	}
	// Frame 0 of video3 equals decoded video1 frame 0.
	v1, err := db.Lookup("video1")
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := db.Expand(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := frame.PSNR(raw1.Video[0], v.Video[0])
	if !math.IsInf(p, 1) {
		t.Errorf("video3[0] should be exactly decoded video1[0], PSNR %.1f", p)
	}
	// Mid-fade frames blend both sources (the fade's first frame is
	// 100% source A by construction, so probe the middle).
	midFade := 24 + 2
	p1, _ := frame.PSNR(raw1.Video[midFade], v.Video[midFade])
	if math.IsInf(p1, 1) {
		t.Error("mid-fade frame identical to video1 — no transition applied")
	}
}

// TestTruncatedBlobDetectedOnLoad truncates a BLOB file after saving;
// the reload must reject the interpretation rather than serve bogus
// payloads.
func TestTruncatedBlobDetectedOnLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New(store)
	if _, err := db.Ingest("clip", fixtures.Video(10, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Truncate the BLOB.
	path := filepath.Join(dir, "1.blob")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	store2, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if _, err := catalog.Load(dir, store2); err == nil {
		t.Fatal("load of truncated BLOB must fail")
	} else if !strings.Contains(err.Error(), "beyond BLOB") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCorruptPayloadFailsDecode flips bytes inside an encoded frame;
// expansion must return a codec error, not garbage.
func TestCorruptPayloadFailsDecode(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db := catalog.New(store)
	id, err := db.Ingest("clip", fixtures.Video(4, 32, 24, 2), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := db.Get(id)
	// Overwrite the first frame's magic directly in the file.
	path := filepath.Join(dir, "1.blob")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_ = obj
	if _, err := db.Expand(id); err == nil {
		t.Fatal("expanding corrupt payload must fail")
	}
}

// TestCorruptCatalogFailsLoad damages the one base checkpoint: with no
// backup beside it, the load must fail.
func TestCorruptCatalogFailsLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New(store)
	if _, err := db.Ingest("clip", fixtures.Video(2, 16, 16, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if err := os.WriteFile(catalog.CheckpointFile(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	store2, _ := blob.OpenFileStore(dir)
	defer store2.Close()
	if _, err := catalog.Load(dir, store2); err == nil {
		t.Fatal("corrupt catalog must fail to load")
	}
}

// TestMissingBlobFailsLoad deletes a BLOB the catalog references.
func TestMissingBlobFailsLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New(store)
	if _, err := db.Ingest("clip", fixtures.Video(2, 16, 16, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if err := os.Remove(filepath.Join(dir, "1.blob")); err != nil {
		t.Fatal(err)
	}
	store2, _ := blob.OpenFileStore(dir)
	defer store2.Close()
	if _, err := catalog.Load(dir, store2); err == nil {
		t.Fatal("missing BLOB must fail to load")
	}
}

// TestDeepDerivationChain stresses recursive expansion: a 20-deep
// chain of cuts still expands correctly and memoizes.
func TestDeepDerivationChain(t *testing.T) {
	db := fixtures.NewMemDB()
	id, err := db.Ingest("base", fixtures.Video(100, 16, 16, 4), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur := id
	for i := 0; i < 20; i++ {
		next, err := db.AddDerived(
			"step"+string(rune('a'+i)), "video-edit", []core.ID{cur},
			derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: int64(100 - i - 1)}}}), nil)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	v, err := db.Expand(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Video) != 80 {
		t.Errorf("frames = %d, want 80", len(v.Video))
	}
}

// TestEndToEndMusicAnimation covers the symbolic path: store MIDI and
// a scene, synthesize and render via derivations, materialize, and
// play the composition.
func TestEndToEndMusicAnimation(t *testing.T) {
	db := fixtures.NewMemDB()
	seqVal := scoreValue()
	scoreID, err := db.Ingest("score", seqVal, catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sceneID, err := db.Ingest("scene", sceneValue(), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	soundtrack, err := db.AddDerived("soundtrack", "midi-synthesis", []core.ID{scoreID},
		derive.EncodeParams(derive.SynthesisParams{TempoBPM: 240, Channels: 2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	footage, err := db.AddDerived("footage", "render-animation", []core.ID{sceneID}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := db.AddMultimedia("mv", timebase.Millis, []core.ComponentRef{
		{Object: footage, Start: 0},
		{Object: soundtrack, Start: 0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink player.Discard
	rep, err := player.PlayComposition(db, mv, &player.VirtualClock{}, &sink, player.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Events == 0 || rep.Duration == 0 {
		t.Errorf("events=%d duration=%v", sink.Events, rep.Duration)
	}
}

func scoreValue() *derive.Value {
	return derive.MusicValue(music.Scale(60, 6, 0))
}

// TestScaledPlaybackAfterReload verifies layered video works through
// persistence.
func TestScaledPlaybackAfterReload(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := catalog.New(store)
	id, err := db.Ingest("scalable", fixtures.Video(10, 64, 48, 6), catalog.IngestOptions{Layered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, _ := blob.OpenFileStore(dir)
	defer store2.Close()
	db2, err := catalog.Load(dir, store2)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := db2.FramesAtFidelity(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 10 || len(layers[0]) != 1 {
		t.Fatalf("layers shape: %d x %d", len(layers), len(layers[0]))
	}
	full, err := db2.Expand(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Video) != 10 {
		t.Errorf("full frames = %d", len(full.Video))
	}
}

// TestInterpretationImmutableAcrossViews verifies that views and
// reloads never mutate the sealed interpretation.
func TestInterpretationImmutableAcrossViews(t *testing.T) {
	db := fixtures.NewMemDB()
	id, err := db.Ingest("clip", fixtures.Video(6, 16, 16, 3), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := db.Get(id)
	it, _ := db.Interpretation(obj.Blob)
	before := it.MustTrack(obj.Track).TotalBytes()
	view, err := it.View(obj.Track)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Payload(obj.Track, 0); err != nil {
		t.Fatal(err)
	}
	if got := it.MustTrack(obj.Track).TotalBytes(); got != before {
		t.Error("view access changed the interpretation")
	}
}

func sceneValue() *derive.Value {
	sc := anim.NewScene(32, 24, timebase.PAL)
	id := sc.AddSprite(4, 4, 255, 0, 0, 0, 0)
	sc.Move(id, 0, 10, 20, 10)
	return derive.AnimValue(sc)
}
