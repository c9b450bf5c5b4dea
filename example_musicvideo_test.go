package timedmedia_test

import (
	"fmt"
	"log"

	"timedmedia"
	"timedmedia/internal/anim"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/music"
)

// Music video: the Conclusion's treatment of symbolic media — "The key
// is derivation: animation and music deal with symbolic representations
// from which audio or video sequences are derived."
//
// A MIDI score is synthesized to audio, an animation scene is rendered
// to video, and both are temporally composed into a multimedia object.
func Example_musicvideo() {
	db := timedmedia.NewDB(timedmedia.NewMemStore())

	// The score: a two-channel piece — a scale on channel 0 and
	// chords on channel 1 (overlapping notes: the paper's example of
	// non-continuous streams).
	score := music.NewSequence()
	scale := music.Scale(60, 8, 0)
	score.Events = append(score.Events, scale.Events...)
	for i, root := range []uint8{48, 53, 55, 48} {
		chord := music.Chord(int64(i)*960, 960, root, 1)
		score.Events = append(score.Events, chord.Events...)
	}
	score.Sort()
	scoreID, err := db.Ingest("score", derive.MusicValue(score), catalog.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The animation: two sprites with movement specs; the stream has
	// gaps while sprites rest.
	scene := anim.NewScene(160, 120, timedmedia.PAL)
	ball := scene.AddSprite(12, 12, 250, 60, 60, 0, 50)
	bar := scene.AddSprite(40, 6, 60, 200, 250, 60, 100)
	scene.Move(ball, 0, 40, 140, 0)
	scene.Move(ball, 50, 30, -70, -40)
	scene.Move(bar, 20, 60, 0, -80)
	animID, err := db.Ingest("scene", derive.AnimValue(scene), catalog.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Type-changing derivations: music → audio, animation → video.
	soundtrack, err := db.AddDerived("soundtrack", "midi-synthesis", []core.ID{scoreID},
		derive.EncodeParams(derive.SynthesisParams{
			TempoBPM: 100, Channels: 2,
			Instruments: map[string]string{"0": "piano", "1": "organ"},
		}), nil)
	if err != nil {
		log.Fatal(err)
	}
	footage, err := db.AddDerived("footage", "render-animation", []core.ID{animID}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the derived values.
	aud, err := db.Expand(soundtrack)
	if err != nil {
		log.Fatal(err)
	}
	vid, err := db.Expand(footage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("score:      %d events → soundtrack: %.1f s of audio (peak %d)\n",
		len(score.Events), float64(aud.Audio.Frames())/44100, aud.Audio.Peak())
	fmt.Printf("animation:  %d movements → footage: %d frames of %dx%d video\n",
		len(scene.Movements), len(vid.Video), vid.Video[0].Width, vid.Video[0].Height)

	// Compose and play.
	mv, err := db.AddMultimedia("music-video", timedmedia.Millis, []timedmedia.ComponentRef{
		{Object: footage, Start: 0},
		{Object: soundtrack, Start: 0},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.AddSync(mv, 0, 1, 40); err != nil {
		log.Fatal(err)
	}
	mm, err := db.BuildMultimedia(mv)
	if err != nil {
		log.Fatal(err)
	}
	tl, err := mm.RenderTimeline(56)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntimeline:")
	fmt.Print(tl)

	var sink timedmedia.PlayerDiscard
	rep, err := timedmedia.PlayComposition(db, mv, timedmedia.NewVirtualClock(), &sink, timedmedia.PlayerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplayed %d events (%d B), max jitter %v, sync skew %v\n",
		sink.Events, sink.Bytes, rep.MaxJitter(), rep.MaxSkew)

	// The symbolic originals stay queryable and editable: transpose
	// the score up a fourth and re-derive — nothing was flattened.
	up, err := db.AddDerived("score-up", "transpose", []core.ID{scoreID},
		derive.EncodeParams(derive.TransposeParams{Semitones: 5}), nil)
	if err != nil {
		log.Fatal(err)
	}
	upVal, err := db.Expand(up)
	if err != nil {
		log.Fatal(err)
	}
	notes, _ := upVal.Music.Notes()
	fmt.Printf("\ntransposed score ready for re-synthesis (first note key %d, was 60)\n", notes[0].Key)

	// Output:
	// score:      40 events → soundtrack: 5.0 s of audio (peak 20272)
	// animation:  3 movements → footage: 81 frames of 160x120 video
	//
	// timeline:
	// soundtrack |========================================================|
	// footage    |====================================                    |
	//             0                                                   5000 ticks (D_1000)
	//
	// played 206 events (925072 B), max jitter 0s, sync skew 0s
	//
	// transposed score ready for re-synthesis (first note key 65, was 60)
}
