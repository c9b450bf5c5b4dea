package player

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"timedmedia/internal/audio"
	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/timebase"
)

func captureSmall(t *testing.T, frames int, opts CaptureOptions) (*interp.Interpretation, blob.Store) {
	t.Helper()
	store := blob.NewMemStore()
	g := frame.Generator{W: 32, H: 24, Seed: 1}
	fs := make([]*frame.Frame, frames)
	for i := range fs {
		fs[i] = g.Frame(i)
	}
	buf := audio.Sine(frames*1764, 2, 440, 44100, 0.4)
	it, err := CaptureAV(store, fs, timebase.PAL, buf, timebase.CDAudio, opts)
	if err != nil {
		t.Fatal(err)
	}
	return it, store
}

func TestCaptureAVInterleaved(t *testing.T) {
	it, _ := captureSmall(t, 5, CaptureOptions{})
	v := it.MustTrack("video1")
	a := it.MustTrack("audio1")
	if v.Len() != 5 || a.Len() != 5 {
		t.Fatalf("tracks: v=%d a=%d", v.Len(), a.Len())
	}
	// Figure 2 interleave: audio block i directly follows frame i.
	for i := 0; i < 5; i++ {
		vp, _ := v.Placement(i)
		ap, _ := a.Placement(i)
		if ap.Offset != vp.End() {
			t.Errorf("frame %d: audio at %d, video ends at %d", i, ap.Offset, vp.End())
		}
	}
	// 1764 sample pairs per frame (the paper's figure).
	if a.Stream().At(0).Dur != 1764 {
		t.Errorf("audio block duration = %d", a.Stream().At(0).Dur)
	}
	if ap, _ := a.Placement(0); ap.Size != 1764*4 {
		t.Errorf("audio block size = %d", ap.Size)
	}
}

func TestCaptureAVPadding(t *testing.T) {
	it, _ := captureSmall(t, 3, CaptureOptions{PadTo: 2048})
	if it.BlobSize()%2048 != 0 {
		t.Errorf("padded blob size = %d, not a multiple of 2048", it.BlobSize())
	}
	// Payloads still read correctly.
	if _, err := it.Payload("video1", 2); err != nil {
		t.Fatal(err)
	}
}

func TestPlayDeadlinesOnVirtualClock(t *testing.T) {
	it, _ := captureSmall(t, 10, CaptureOptions{})
	clock := &VirtualClock{}
	var sink Discard
	rep, err := Play(it, nil, clock, &sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Events != 20 {
		t.Errorf("events = %d", sink.Events)
	}
	// No simulated work → zero jitter.
	if rep.MaxJitter() != 0 {
		t.Errorf("max jitter = %v", rep.MaxJitter())
	}
	// Final clock = last deadline = frame 9 at 9/25 s = 360 ms.
	if rep.Duration != 360*time.Millisecond {
		t.Errorf("duration = %v", rep.Duration)
	}
}

func TestPlayEventOrderingInterleaved(t *testing.T) {
	it, _ := captureSmall(t, 5, CaptureOptions{})
	clock := &VirtualClock{}
	var seq []string
	sink := SinkFunc(func(e Event) error {
		seq = append(seq, fmt.Sprintf("%s[%d]", e.Track, e.Index))
		return nil
	})
	if _, err := Play(it, nil, clock, sink, Options{}); err != nil {
		t.Fatal(err)
	}
	// Deadlines tie frame i with audio block i; stable merge keeps
	// video (declared first) before audio.
	if seq[0] != "video1[0]" || seq[1] != "audio1[0]" || seq[2] != "video1[1]" {
		t.Errorf("order = %v", seq[:4])
	}
}

func TestPlayJitterUnderLoad(t *testing.T) {
	it, _ := captureSmall(t, 10, CaptureOptions{})
	clock := &VirtualClock{}
	var sink Discard
	// Simulate a slow machine: 1 µs per byte (≈ 5 ms per frame, over
	// the 40 ms frame budget for A/V combined? frames ≈ 1-2 KB → fine;
	// crank it up to force lateness).
	rep, err := Play(it, nil, clock, &sink, Options{WorkPerByte: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxJitter() == 0 {
		t.Error("expected jitter under simulated load")
	}
	if rep.Duration <= 360*time.Millisecond {
		t.Errorf("duration = %v, should exceed nominal", rep.Duration)
	}
}

func TestPlayWindow(t *testing.T) {
	it, _ := captureSmall(t, 10, CaptureOptions{})
	var sink Discard
	_, err := Play(it, []string{"video1"}, &VirtualClock{}, &sink, Options{From: 0.2, To: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Frames 5..7 (at 0.20, 0.24, 0.28 s) fall in [0.2, 0.3).
	if sink.Events != 3 {
		t.Errorf("windowed events = %d", sink.Events)
	}
}

func TestScaledPlaybackReadsFewerBytes(t *testing.T) {
	it, store := captureSmall(t, 8, CaptureOptions{Layered: true})
	var base, full Discard
	store.Stats().Reset()
	if _, err := Play(it, []string{"video1"}, &VirtualClock{}, &base, Options{MaxLayer: 0}); err != nil {
		t.Fatal(err)
	}
	_, baseBytes, _, _ := store.Stats().Snapshot()
	store.Stats().Reset()
	if _, err := Play(it, []string{"video1"}, &VirtualClock{}, &full, Options{MaxLayer: -1}); err != nil {
		t.Fatal(err)
	}
	_, fullBytes, _, _ := store.Stats().Snapshot()
	if baseBytes >= fullBytes {
		t.Errorf("scaled playback read %d bytes vs full %d", baseBytes, fullBytes)
	}
	if base.Events != full.Events {
		t.Errorf("scaled playback dropped events: %d vs %d", base.Events, full.Events)
	}
}

func TestPlaySinkAbort(t *testing.T) {
	it, _ := captureSmall(t, 5, CaptureOptions{})
	n := 0
	sink := SinkFunc(func(Event) error {
		n++
		if n == 3 {
			return errors.New("stop")
		}
		return nil
	})
	_, err := Play(it, nil, &VirtualClock{}, sink, Options{})
	if !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v", err)
	}
}

func TestPlayUnknownTrack(t *testing.T) {
	it, _ := captureSmall(t, 2, CaptureOptions{})
	if _, err := Play(it, []string{"ghost"}, &VirtualClock{}, &Discard{}, Options{}); err == nil {
		t.Error("unknown track must fail")
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	start := c.Now()
	got := c.WaitUntil(start + 5*time.Millisecond)
	if got < start+5*time.Millisecond {
		t.Errorf("WaitUntil returned %v", got)
	}
	c.Advance(time.Hour) // no-op
	if c.Now() > start+time.Minute {
		t.Error("Advance affected real clock")
	}
}

func TestPlayComposition(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 16, H: 12, Seed: 2}
	frames := make([]*frame.Frame, 10)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	vid, err := db.Ingest("v", derive.VideoValue(frames, timebase.PAL), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aud, err := db.Ingest("a", derive.AudioValue(audio.Sine(17640, 2, 440, 44100, 0.4), timebase.CDAudio), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Audio starts 100 ms after video.
	mm, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{
		{Object: vid, Start: 0},
		{Object: aud, Start: 100},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddSync(mm, 0, 1, 40); err != nil {
		t.Fatal(err)
	}
	var sink Discard
	rep, err := PlayComposition(db, mm, &VirtualClock{}, &sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tracks) != 2 {
		t.Fatalf("tracks = %v", rep.Tracks)
	}
	if rep.Tracks[0].Events != 10 {
		t.Errorf("video events = %d", rep.Tracks[0].Events)
	}
	// The final deadline is the last audio block: sample 15876 at
	// +100 ms = 460 ms (durations are not waited out).
	if d := rep.Duration; d < 459*time.Millisecond || d > 461*time.Millisecond {
		t.Errorf("duration = %v", d)
	}
	if rep.MaxSkew != 0 {
		t.Errorf("skew on virtual clock = %v", rep.MaxSkew)
	}
}

func TestPlayCompositionWithDerivedComponent(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 16, H: 12, Seed: 3}
	frames := make([]*frame.Frame, 10)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	vid, _ := db.Ingest("v", derive.VideoValue(frames, timebase.PAL), catalog.IngestOptions{})
	cut, err := db.SelectDuration(vid, "cut", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{{Object: cut, Start: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink Discard
	rep, err := PlayComposition(db, mm, &VirtualClock{}, &sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tracks[0].Events != 4 {
		t.Errorf("events = %d", rep.Tracks[0].Events)
	}
}

// TestPlayCompositionWritesNothing: a derived component is expanded
// into a private BLOB, so playing commits nothing and creates no BLOB
// in the catalog's store, and a second play reports what the first did.
func TestPlayCompositionWritesNothing(t *testing.T) {
	store := blob.NewMemStore()
	db := catalog.New(store)
	g := frame.Generator{W: 16, H: 12, Seed: 3}
	vid, err := db.Ingest("v", derive.VideoValue([]*frame.Frame{g.Frame(0), g.Frame(1), g.Frame(2)}, timebase.PAL), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := db.SelectDuration(vid, "cut", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{{Object: cut, Start: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, n := db.Seq(), db.Len()
	var reports []Report
	for i := 0; i < 2; i++ {
		rep, err := PlayComposition(db, mm, &VirtualClock{}, &Discard{}, Options{})
		if err != nil {
			t.Fatalf("play %d: %v", i+1, err)
		}
		reports = append(reports, rep)
	}
	ids, _ := store.IDs()
	if db.Seq() != seq || db.Len() != n || len(ids) != 1 {
		t.Errorf("after two plays: seq %d → %d, %d → %d objects, %d BLOBs", seq, db.Seq(), n, db.Len(), len(ids))
	}
	if reports[0].Tracks[0] != reports[1].Tracks[0] || reports[0].Tracks[0].Events != 2 {
		t.Errorf("reports %+v and %+v", reports[0].Tracks, reports[1].Tracks)
	}
}

func TestPlayCompositionNotMultimedia(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 8, H: 8, Seed: 1}
	vid, _ := db.Ingest("v", derive.VideoValue([]*frame.Frame{g.Frame(0)}, timebase.PAL), catalog.IngestOptions{})
	if _, err := PlayComposition(db, vid, &VirtualClock{}, &Discard{}, Options{}); err == nil {
		t.Error("media object must be rejected")
	}
}

func TestVirtualClockSemantics(t *testing.T) {
	c := &VirtualClock{}
	if c.WaitUntil(100) != 100 {
		t.Error("WaitUntil should advance")
	}
	if c.WaitUntil(50) != 100 {
		t.Error("WaitUntil must not go backwards")
	}
	c.Advance(25)
	if c.Now() != 125 {
		t.Errorf("now = %v", c.Now())
	}
	c.Advance(-5)
	if c.Now() != 125 {
		t.Error("negative advance must be ignored")
	}
}

func TestVariableRatePlayback(t *testing.T) {
	it, _ := captureSmall(t, 10, CaptureOptions{})
	var sink Discard
	// 2x: last deadline halves from 360 ms to 180 ms.
	rep, err := Play(it, []string{"video1"}, &VirtualClock{}, &sink, Options{Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 180*time.Millisecond {
		t.Errorf("2x duration = %v", rep.Duration)
	}
	// 0.5x: doubles to 720 ms.
	rep, err = Play(it, []string{"video1"}, &VirtualClock{}, &sink, Options{Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration != 720*time.Millisecond {
		t.Errorf("0.5x duration = %v", rep.Duration)
	}
	// Rate 0 means normal speed.
	rep, err = Play(it, []string{"video1"}, &VirtualClock{}, &sink, Options{})
	if err != nil || rep.Duration != 360*time.Millisecond {
		t.Errorf("default rate duration = %v err=%v", rep.Duration, err)
	}
}

func TestTrackReportMeanJitter(t *testing.T) {
	var r TrackReport
	if r.MeanJitter() != 0 {
		t.Error("zero events must mean zero jitter")
	}
	r.Events = 4
	r.SumJitter = 8 * time.Millisecond
	if r.MeanJitter() != 2*time.Millisecond {
		t.Errorf("mean = %v", r.MeanJitter())
	}
}

func TestPlayCompositionScaledFidelity(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 32, H: 24, Seed: 4}
	frames := make([]*frame.Frame, 5)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	vid, err := db.Ingest("v", derive.VideoValue(frames, timebase.PAL), catalog.IngestOptions{Layered: true})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("m", timebase.Millis, []core.ComponentRef{{Object: vid, Start: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var base, full Discard
	if _, err := PlayComposition(db, mm, &VirtualClock{}, &base, Options{MaxLayer: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := PlayComposition(db, mm, &VirtualClock{}, &full, Options{MaxLayer: -1}); err != nil {
		t.Fatal(err)
	}
	if base.Bytes >= full.Bytes {
		t.Errorf("scaled composition playback: base %d >= full %d", base.Bytes, full.Bytes)
	}
}

// TestTwoEntryPointsOneSchedule: a one-component composition at offset
// 0 delivers what Play of that track delivers, under every option, and
// placing the component at +100 ms moves every deadline by 100 ms /
// Rate and nothing else.
func TestTwoEntryPointsOneSchedule(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 32, H: 24, Seed: 5}
	frames := make([]*frame.Frame, 10)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	vid, err := db.Ingest("v", derive.VideoValue(frames, timebase.PAL), catalog.IngestOptions{Layered: true})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(vid)
	if err != nil {
		t.Fatal(err)
	}
	it, err := db.Interpretation(obj.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := it.MustTrack(obj.Track).Layers(0); n < 2 {
		t.Fatalf("layered ingest wrote %d layers", n)
	}
	at0, err := db.AddMultimedia("at0", timebase.Millis, []core.ComponentRef{{Object: vid, Start: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	at100, err := db.AddMultimedia("at100", timebase.Millis, []core.ComponentRef{{Object: vid, Start: 100}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	record := func(evs *[]Event) Sink {
		return SinkFunc(func(e Event) error { *evs = append(*evs, e); return nil })
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"all layers", Options{MaxLayer: -1}},
		{"base layer", Options{MaxLayer: 0}},
		{"layer clamp", Options{MaxLayer: 7}},
		{"window", Options{MaxLayer: -1, From: 0.1, To: 0.25}},
		{"open window", Options{MaxLayer: -1, From: 0.15}},
		{"rate 2", Options{MaxLayer: -1, Rate: 2}},
		{"rate 0.5", Options{MaxLayer: -1, Rate: 0.5}},
		{"work", Options{MaxLayer: -1, WorkPerByte: 20 * time.Microsecond}},
		{"everything", Options{MaxLayer: 0, From: 0.1, To: 0.3, Rate: 2, WorkPerByte: 30 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var played, composed, shifted []Event
			prep, err := Play(it, []string{obj.Track}, &VirtualClock{}, record(&played), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			crep, err := PlayComposition(db, at0, &VirtualClock{}, record(&composed), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(played) == 0 || len(played) != len(composed) {
				t.Fatalf("Play delivered %d events, PlayComposition %d", len(played), len(composed))
			}
			for i, p := range played {
				c := composed[i]
				if p.Track != obj.Track || c.Track != "v" {
					t.Fatalf("event %d labels: %q and %q", i, p.Track, c.Track)
				}
				if p.Index != c.Index || p.Deadline != c.Deadline || p.Actual != c.Actual || len(p.Payload) != len(c.Payload) {
					t.Errorf("event %d: Play %d@%v/%v %d B, PlayComposition %d@%v/%v %d B",
						i, p.Index, p.Deadline, p.Actual, len(p.Payload), c.Index, c.Deadline, c.Actual, len(c.Payload))
				}
			}
			if prep.Duration != crep.Duration || prep.MaxJitter() != crep.MaxJitter() {
				t.Errorf("reports: Play %v/%v, PlayComposition %v/%v", prep.Duration, prep.MaxJitter(), crep.Duration, crep.MaxJitter())
			}

			opts := tc.opts
			opts.From += 0.1
			if opts.To > 0 {
				opts.To += 0.1
			}
			if _, err := PlayComposition(db, at100, &VirtualClock{}, record(&shifted), opts); err != nil {
				t.Fatal(err)
			}
			if len(shifted) != len(composed) {
				t.Fatalf("shifted composition delivered %d events, want %d", len(shifted), len(composed))
			}
			// A deadline is float seconds rounded to nanoseconds, so an
			// element whose shifted start is a little short in binary
			// (0.24 + 0.1 = 0.33999…) still lands on the exact shift:
			// 100 ms at rates 1, 2 and 0.5 over 40 ms frames.
			want := time.Duration(float64(100*time.Millisecond) / opts.speed())
			for i, c := range composed {
				s := shifted[i]
				if d := s.Deadline - c.Deadline; s.Index != c.Index || len(s.Payload) != len(c.Payload) || d != want {
					t.Errorf("event %d: at +100 ms %d@%v %d B, at 0 %d@%v %d B (want deadline +%v)",
						i, s.Index, s.Deadline, len(s.Payload), c.Index, c.Deadline, len(c.Payload), want)
				}
			}
		})
	}

	// A window that holds nothing: Play reports nothing played,
	// PlayComposition refuses.
	rep, err := Play(it, []string{obj.Track}, &VirtualClock{}, &Discard{}, Options{From: 10})
	if err != nil || len(rep.Tracks) != 1 || rep.Tracks[0].Events != 0 {
		t.Errorf("empty window: Play %+v, %v", rep, err)
	}
	if _, err := PlayComposition(db, at0, &VirtualClock{}, &Discard{}, Options{From: 10}); !errors.Is(err, ErrNoTracks) {
		t.Errorf("empty window: PlayComposition err = %v, want ErrNoTracks", err)
	}
}

// TestMaxSkewIsLatenessGap pins what MaxSkew measures: for each event
// of a sync-constrained component, the absolute difference between its
// lateness and the worst lateness its partner has had so far; the
// report's MaxSkew is the largest such difference.
func TestMaxSkewIsLatenessGap(t *testing.T) {
	db := catalog.New(blob.NewMemStore())
	g := frame.Generator{W: 32, H: 24, Seed: 6}
	frames := make([]*frame.Frame, 8)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	vid, err := db.Ingest("v", derive.VideoValue(frames, timebase.PAL), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aud, err := db.Ingest("a", derive.AudioValue(audio.Sine(8*1764, 2, 440, 44100, 0.4), timebase.CDAudio), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := db.Ingest("w", derive.VideoValue(frames[:4], timebase.PAL), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// "w" is unconstrained: its deliveries move the clock but are not
	// measured.
	mm, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{
		{Object: vid, Start: 0},
		{Object: aud, Start: 20},
		{Object: other, Start: 60},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddSync(mm, 0, 1, 40); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	rep, err := PlayComposition(db, mm, &VirtualClock{}, SinkFunc(func(e Event) error { evs = append(evs, e); return nil }),
		Options{MaxLayer: -1, WorkPerByte: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	partner := map[string]string{"v": "a", "a": "v"}
	seen := map[string]bool{}
	worst := map[string]time.Duration{}
	var want time.Duration
	for _, e := range evs {
		if o, ok := partner[e.Track]; ok && seen[o] {
			gap := e.Jitter() - worst[o]
			if gap < 0 {
				gap = -gap
			}
			if gap > want {
				want = gap
			}
		}
		seen[e.Track] = true
		if j := e.Jitter(); j > worst[e.Track] {
			worst[e.Track] = j
		}
	}
	if want == 0 {
		t.Fatal("the load produced no lateness gap; the check shows nothing")
	}
	if rep.MaxSkew != want {
		t.Errorf("MaxSkew = %v, want %v", rep.MaxSkew, want)
	}
}
