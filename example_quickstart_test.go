package timedmedia_test

import (
	"fmt"
	"log"

	"timedmedia"
	"timedmedia/internal/audio"
	"timedmedia/internal/frame"
)

// Quickstart: capture synthetic audio/video into the database, look at
// the interpretation the capture built, make a non-destructive cut,
// and play the result on a virtual clock.
func Example_quickstart() {
	// A database is a catalog over a BLOB store. In-memory here;
	// timedmedia.OpenFileStore gives a persistent one.
	db := timedmedia.NewDB(timedmedia.NewMemStore())

	// Synthesize two seconds of PAL video (50 frames) and matching
	// CD audio — stand-ins for a real capture device.
	g := frame.Generator{W: 320, H: 240, Seed: 7}
	frames := make([]*timedmedia.Frame, 50)
	for i := range frames {
		frames[i] = g.Frame(i)
	}
	tone := audio.Sine(2*44100, 2, 440, 44100, 0.4)

	// Ingest builds a BLOB, seals its interpretation, and registers a
	// media object. The quality factor — not codec parameters — picks
	// the encoding rate.
	clip, err := db.Ingest("clip", timedmedia.VideoValue(frames, timedmedia.PAL),
		timedmedia.IngestOptions{Quality: timedmedia.QualityVHS, Attrs: map[string]string{"title": "demo"}})
	if err != nil {
		log.Fatal(err)
	}
	song, err := db.Ingest("song", timedmedia.AudioValue(tone, timedmedia.CDAudio), timedmedia.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The interpretation is visible as timed streams with media
	// descriptors, not as bytes.
	obj, _ := db.Get(clip)
	it, _ := db.Interpretation(obj.Blob)
	tr, _ := it.Track(obj.Track)
	fmt.Println("stored:    ", tr.Descriptor())
	fmt.Println("categories:", tr.Stream().Classify())
	fmt.Println("table:     ", tr)

	// Non-destructive editing: a cut is a 60-byte derivation object,
	// not a copy of the frames.
	cut, err := db.SelectDuration(clip, "cut", 10, 40)
	if err != nil {
		log.Fatal(err)
	}
	cutObj, _ := db.Get(cut)
	fmt.Printf("cut:        %v (%d B derivation object)\n", cutObj, cutObj.Derivation.SizeBytes())

	// Compose the cut with the audio on a millisecond axis and play.
	mm, err := db.AddMultimedia("show", timedmedia.Millis, []timedmedia.ComponentRef{
		{Object: cut, Start: 0},
		{Object: song, Start: 0},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	var sink timedmedia.PlayerDiscard
	rep, err := timedmedia.PlayComposition(db, mm, timedmedia.NewVirtualClock(), &sink, timedmedia.PlayerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("played:     %d events, %d bytes, max jitter %v\n", sink.Events, sink.Bytes, rep.MaxJitter())

	// Output:
	// stored:     video{VHS quality, D_25 fps, 50 frames, 320x240x24 RGB, enc=vjpg}
	// categories: homogeneous, continuous, constant frequency
	// table:      video(elementNumber, elementSize, blobPlacement) n=50
	// cut:        obj-3 "cut" [media object (derived)] = video-edit[obj-1] (61 B derivation object)
	// played:     80 events, 864333 bytes, max jitter 0s
}
