package timedmedia_test

import (
	"fmt"
	"log"

	"timedmedia"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/fixtures"
)

// Video editing: the Section 4.2/4.3 post-production workflow — raw
// captures, cut lists, a fade transition, concatenation, temporal
// composition — done entirely with derivation objects, demonstrating
// non-destructive editing and the storage economics the paper claims
// ("a video edit list is likely many orders of magnitude smaller than
// a video object").
func Example_videoediting() {
	db := timedmedia.NewDB(timedmedia.NewMemStore())

	// Raw material: two 8-second scenes (200 PAL frames each).
	scene1, err := db.Ingest("scene1", fixtures.Video(200, 160, 120, 31), catalog.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	scene2, err := db.Ingest("scene2", fixtures.Video(200, 160, 120, 77), catalog.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The edit: keep scene1[0:150], fade 25 frames into scene2, then
	// scene2[25:200]. All three steps are derivation objects.
	cut1, err := db.AddDerived("cut1", "video-edit", []core.ID{scene1},
		derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 0, To: 150}}}), nil)
	if err != nil {
		log.Fatal(err)
	}
	fade, err := db.AddDerived("fade", "video-transition", []core.ID{scene1, scene2},
		derive.EncodeParams(derive.TransitionParams{Type: "fade", Dur: 25, AStart: 150, BStart: 0}), nil)
	if err != nil {
		log.Fatal(err)
	}
	cut2, err := db.AddDerived("cut2", "video-edit", []core.ID{scene2},
		derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 25, To: 200}}}), nil)
	if err != nil {
		log.Fatal(err)
	}
	final, err := db.AddDerived("final", "video-concat", []core.ID{cut1, fade, cut2}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Storage economics: sum the derivation objects vs the frames they
	// stand for.
	var derivationBytes int
	for _, id := range []core.ID{cut1, fade, cut2, final} {
		obj, _ := db.Get(id)
		derivationBytes += obj.Derivation.SizeBytes()
	}
	v, err := db.Expand(final)
	if err != nil {
		log.Fatal(err)
	}
	var expandedBytes int
	for _, f := range v.Video {
		expandedBytes += len(f.Pix)
	}
	fmt.Printf("edit recorded in %d bytes of derivation objects\n", derivationBytes)
	fmt.Printf("expanded result: %d frames, %d bytes raw (%.0fx larger)\n",
		len(v.Video), expandedBytes, float64(expandedBytes)/float64(derivationBytes))

	// The originals are untouched — re-cutting is a new derivation,
	// not a re-render ("sequences of derivations can be changed and
	// reused").
	recut, err := db.AddDerived("recut", "video-edit", []core.ID{scene1},
		derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: 100, To: 150}}}), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recut %v created without touching stored frames\n", recut)

	// Provenance: the database can answer how "final" was produced.
	diagram, err := db.InstanceDiagram(final)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprovenance of \"final\":")
	fmt.Print(diagram)

	// Real-time feasibility (the store-vs-expand decision): ask the
	// cost model whether the fade could be produced during playback.
	in1, _ := db.Expand(scene1)
	in2, _ := db.Expand(scene2)
	cost, err := derive.EstimateCost("video-transition", []*derive.Value{in1, in2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if cost.RealTime(timedmedia.PAL) {
		fmt.Println("\nfade expands in real time at 25 fps → store only the derivation object")
	} else {
		fmt.Println("\nfade too slow for real time → materialize it")
		if _, err := db.Materialize(fade, "fade-stored", catalog.IngestOptions{}); err != nil {
			log.Fatal(err)
		}
	}

	// Output:
	// edit recorded in 241 bytes of derivation objects
	// expanded result: 350 frames, 20160000 bytes raw (83651x larger)
	// recut #7 created without touching stored frames
	//
	// provenance of "final":
	// (final)  [derived media object]
	//   <video-concat: derivation, params 0 B>
	//     (cut1)  [derived media object]
	//       <video-edit: derivation, params 43 B>
	//         (scene1)  [media object]
	//           <interpretationOf>
	//             ((blob-1 : video))
	//     (fade)  [derived media object]
	//       <video-transition: derivation, params 50 B>
	//         (scene1)  [media object]
	//           <interpretationOf>
	//             ((blob-1 : video))
	//         (scene2)  [media object]
	//           <interpretationOf>
	//             ((blob-2 : video))
	//     (cut2)  [derived media object]
	//       <video-edit: derivation, params 44 B>
	//         (scene2)  [media object]
	//           <interpretationOf>
	//             ((blob-2 : video))
	//
	// fade expands in real time at 25 fps → store only the derivation object
}
