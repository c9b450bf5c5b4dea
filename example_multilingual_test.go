package timedmedia_test

import (
	"fmt"
	"log"

	"timedmedia"
	"timedmedia/internal/audio"
	"timedmedia/internal/codec"
	"timedmedia/internal/core"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
)

// Multilingual movie: the Section 1.2 motivation — "consider a digital
// movie with audio tracks in different languages. If the movie is
// represented structurally, rather than as a long uninterpreted byte
// sequence, it is possible to issue queries which select a specific
// sound track, or select a specific duration, or perhaps retrieve
// frames at a specific visual fidelity."
//
// All three queries run here against one interleaved BLOB.
func Example_multilingual() {
	store := timedmedia.NewMemStore()
	db := timedmedia.NewDB(store)

	// Build the movie: layered VHS-quality video plus four language
	// audio tracks, all interleaved in a single BLOB.
	const nFrames = 50
	langs := []string{"en", "fr", "de", "it"}
	id, b, err := store.Create()
	if err != nil {
		log.Fatal(err)
	}
	vType := media.PALVideoType(160, 120, media.QualityVHS, media.EncodingVJPG)
	aType := media.PCMBlockAudioType(1764)
	bu := interp.NewBuilder(id, b).
		AddTrack("video", vType, vType.NewDescriptor(nFrames))
	for _, l := range langs {
		bu.AddTrack("audio-"+l, aType, aType.NewDescriptor(nFrames*1764))
	}
	g := frame.Generator{W: 160, H: 120, Seed: 5}
	q := codec.QuantizerFor(media.QualityVHS)
	voices := map[string]*audio.Buffer{}
	for li, l := range langs {
		voices[l] = audio.Sine(nFrames*1764, 2, 200+80*float64(li), 44100, 0.4)
	}
	for i := 0; i < nFrames; i++ {
		base, enh, err := codec.VJPGEncodeLayered(g.Frame(i), q)
		if err != nil {
			log.Fatal(err)
		}
		bu.AppendLayered("video", [][]byte{base, enh}, int64(i), 1, media.ElementDescriptor{})
		for _, l := range langs {
			pcm := codec.PCMEncode16(voices[l].Slice(i*1764, (i+1)*1764))
			bu.Append("audio-"+l, pcm, int64(i)*1764, 1764, media.ElementDescriptor{})
		}
	}
	it, err := bu.Seal()
	if err != nil {
		log.Fatal(err)
	}
	if err := db.RegisterInterpretation(it); err != nil {
		log.Fatal(err)
	}
	movie, err := db.AddNonDerived("movie", id, "video",
		map[string]string{"title": "Voyage", "director": "S. Gibbs"})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range langs {
		if _, err := db.AddNonDerived("movie-audio-"+l, id, "audio-"+l,
			map[string]string{"language": l, "title": "Voyage"}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("movie stored: 1 video + %d audio tracks in one %d-byte BLOB\n\n", len(langs), it.BlobSize())

	// Query 1: select a specific sound track (by language attribute).
	fmt.Println("Q1: audio track where language = \"fr\"")
	for _, obj := range db.ByAttr("language", "fr") {
		fmt.Printf("    → %v\n", obj)
	}

	// Query 2: select a specific duration (frames 10..30 as a
	// derivation — no bytes copied).
	fmt.Println("Q2: select frames [10,30) of the movie")
	cut, err := db.SelectDuration(movie, "movie-middle", 10, 30)
	if err != nil {
		log.Fatal(err)
	}
	v, err := db.Expand(cut)
	if err != nil {
		log.Fatal(err)
	}
	cutObj, _ := db.Get(cut)
	fmt.Printf("    → %d frames via a %d-byte derivation object\n", len(v.Video), cutObj.Derivation.SizeBytes())

	// Query 3: retrieve frames at a specific visual fidelity — read
	// only base layers and decode at half resolution.
	fmt.Println("Q3: retrieve frames at preview fidelity")
	store.Stats().Reset()
	layers, err := db.FramesAtFidelity(movie, 0)
	if err != nil {
		log.Fatal(err)
	}
	_, baseBytes, _, _ := store.Stats().Snapshot()
	small, err := codec.VJPGDecodeBase(layers[0][0])
	if err != nil {
		log.Fatal(err)
	}
	store.Stats().Reset()
	if _, err := db.FramesAtFidelity(movie, -1); err != nil {
		log.Fatal(err)
	}
	_, fullBytes, _, _ := store.Stats().Snapshot()
	fmt.Printf("    → %dx%d previews, %d B read (full fidelity would read %d B, %.1fx more)\n",
		small.Width, small.Height, baseBytes, fullBytes, float64(fullBytes)/float64(baseBytes))

	// And the BLOB-only counterfactual the paper warns about: without
	// the interpretation, every one of these queries would mean
	// scanning all bytes and knowing the layout out-of-band.
	fmt.Printf("\nuninterpreted-BLOB baseline: any query touches all %d bytes\n", it.BlobSize())

	// Bonus: domain attributes compose with structural queries.
	fmt.Println("\nall objects of the movie:")
	for _, obj := range db.Select(func(o *core.Object) bool { return o.Attrs["title"] == "Voyage" }) {
		fmt.Printf("    %v\n", obj)
	}

	// Output:
	// movie stored: 1 video + 4 audio tracks in one 4736638-byte BLOB
	//
	// Q1: audio track where language = "fr"
	//     → obj-3 "movie-audio-fr" [media object (non-derived)] ← blob-1/audio-fr
	// Q2: select frames [10,30) of the movie
	//     → 20 frames via a 61-byte derivation object
	// Q3: retrieve frames at preview fidelity
	//     → 80x60 previews, 104819 B read (full fidelity would read 3325438 B, 31.7x more)
	//
	// uninterpreted-BLOB baseline: any query touches all 4736638 bytes
	//
	// all objects of the movie:
	//     obj-1 "movie" [media object (non-derived)] ← blob-1/video
	//     obj-2 "movie-audio-en" [media object (non-derived)] ← blob-1/audio-en
	//     obj-3 "movie-audio-fr" [media object (non-derived)] ← blob-1/audio-fr
	//     obj-4 "movie-audio-de" [media object (non-derived)] ← blob-1/audio-de
	//     obj-5 "movie-audio-it" [media object (non-derived)] ← blob-1/audio-it
}
