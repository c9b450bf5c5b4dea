package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/codec"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/export"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/player"
	"timedmedia/internal/timebase"
)

// openDB loads (or initializes) the database in dir. catalog.Open
// recovers from a corrupt checkpoint file via the rest of the chain or
// the backup base, replays the mutation journal, and attaches it, so
// every mutation this CLI makes is durable even if the process dies
// before its checkpoint. It also locks dir, so a command run against a
// live server's directory fails and changes nothing there; the error
// points at -url only when the command's flag set fs (nil: none) has
// it.
func openDB(fs *flag.FlagSet, dir string) (*catalog.DB, *blob.FileStore, error) {
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		return nil, nil, err
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		store.Close()
		if errors.Is(err, durable.ErrLocked) {
			hint := "server running? stop it, or use its HTTP API"
			if fs != nil && fs.Lookup("url") != nil {
				hint = "server running? use -url"
			}
			err = fmt.Errorf("%w (%s)", err, hint)
		}
		return nil, nil, err
	}
	if rec := db.Recovery(); rec.Eventful() {
		fmt.Fprintf(os.Stderr, "tbmctl: recovered catalog (backup=%v quarantined=%q broken chain=%v corrupt manifest=%v journal records=%d torn journal=%v blobs swept=%d)\n",
			rec.UsedBackup, rec.Quarantined, rec.CheckpointChainBroken, rec.ManifestCorrupt, rec.JournalRecords, rec.JournalTorn, rec.BlobsSwept)
	}
	return db, store, nil
}

// withDB runs fn on the database in dir, which stays open and locked
// until fn returns. What fn changed is checkpointed on the way out — a
// delta unless the directory has no chain to extend yet.
func withDB(fs *flag.FlagSet, dir string, fn func(*catalog.DB) error) error {
	db, store, err := openDB(fs, dir)
	if err != nil {
		return err
	}
	seq := db.Seq()
	err = fn(db)
	if db.Seq() != seq {
		err = errors.Join(err, db.Checkpoint(dir))
	}
	return errors.Join(err, db.CloseJournal(), store.Close())
}

func cmdCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object base name (required)")
	seconds := fs.Float64("seconds", 2, "captured duration")
	width := fs.Int("width", 320, "frame width")
	height := fs.Int("height", 240, "frame height")
	layered := fs.Bool("layered", false, "store scalable video (base+enhancement)")
	seed := fs.Int64("seed", 1, "content generator seed")
	lang := fs.String("language", "", "language attribute for the audio object")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	return withDB(fs, *dir, func(db *catalog.DB) error {
		nFrames := int(*seconds * 25)
		video := fixtures.Video(nFrames, *width, *height, *seed)
		audio := fixtures.Tone(*seconds, 220+110*float64(*seed%5))
		vid, err := db.Ingest(*name+"-video", video, catalog.IngestOptions{Layered: *layered})
		if err != nil {
			return err
		}
		var attrs map[string]string
		if *lang != "" {
			attrs = map[string]string{"language": *lang}
		}
		aud, err := db.Ingest(*name+"-audio", audio, catalog.IngestOptions{Attrs: attrs})
		if err != nil {
			return err
		}
		fmt.Printf("captured %v (%d frames) and %v (%.1f s audio)\n", vid, nFrames, aud, *seconds)
		return nil
	})
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	return withDB(fs, *dir, func(db *catalog.DB) error {
		obj, err := db.Lookup(*name)
		if err != nil {
			return err
		}
		fmt.Println(obj)
		for k, v := range obj.Attrs {
			fmt.Printf("  attr %s = %q\n", k, v)
		}
		switch obj.Class {
		case core.ClassNonDerived:
			it, err := db.Interpretation(obj.Blob)
			if err != nil {
				return err
			}
			tr, err := it.Track(obj.Track)
			if err != nil {
				return err
			}
			fmt.Printf("  descriptor: %v\n", tr.Descriptor())
			fmt.Printf("  categories: %v\n", tr.Stream().Classify())
			fmt.Printf("  table:      %v\n", tr)
			fmt.Printf("  bytes:      %d in %v (%d B)\n", tr.TotalBytes(), obj.Blob, it.BlobSize())
			fmt.Printf("  chunks:     %d, key elements: %d\n", len(tr.Chunks()), len(tr.KeyElements()))
			if tr.MediaType().Encoding() == media.EncodingVJPG {
				gens, err := vjpgGenerations(it, tr)
				if err != nil {
					return err
				}
				fmt.Printf("  vjpg frames: %s\n", gens)
			}
		case core.ClassDerived:
			fmt.Printf("  derivation: %s inputs=%v params=%s (%d B)\n",
				obj.Derivation.Op, obj.Derivation.Inputs, obj.Derivation.Params, obj.Derivation.SizeBytes())
		case core.ClassMultimedia:
			mm, err := db.BuildMultimedia(obj.ID)
			if err != nil {
				return err
			}
			d, err := mm.Duration()
			if err != nil {
				return err
			}
			fmt.Printf("  components: %d, duration %d ticks of %v\n", mm.Len(), d, obj.Multimedia.Time)
		}
		return nil
	})
}

// vjpgGenerations counts a vjpg track's frames by the magic their base
// layer opens with, the codec generation that wrote them, as "50 VA" or
// "10 VA, 40 VV": a catalog an earlier build wrote shows its mix.
func vjpgGenerations(it *interp.Interpretation, tr *interp.Track) (string, error) {
	count := map[string]int{}
	for i := 0; i < tr.Len(); i++ {
		layers, err := it.PayloadLayers(tr.Name(), i, 0)
		if err != nil {
			return "", err
		}
		magic, ok := codec.VJPGMagic(layers[0])
		if !ok {
			magic = "unknown"
		}
		count[magic]++
	}
	magics := make([]string, 0, len(count))
	for magic := range count {
		magics = append(magics, magic)
	}
	sort.Strings(magics)
	parts := make([]string, len(magics))
	for i, magic := range magics {
		parts[i] = fmt.Sprintf("%d %s", count[magic], magic)
	}
	return strings.Join(parts, ", "), nil
}

func cmdCompose(args []string) error {
	fs := flag.NewFlagSet("compose", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new multimedia object name (required)")
	comps := fs.String("components", "", `comma-separated "objectName@startMs"`)
	fs.Parse(args)
	return withDB(fs, *dir, func(db *catalog.DB) error {
		var refs []core.ComponentRef
		for _, part := range strings.Split(*comps, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			objName, startStr, ok := strings.Cut(part, "@")
			if !ok {
				return fmt.Errorf("component %q: want name@startMs", part)
			}
			obj, err := db.Lookup(objName)
			if err != nil {
				return err
			}
			start, err := strconv.ParseInt(startStr, 10, 64)
			if err != nil {
				return fmt.Errorf("component %q: %v", part, err)
			}
			refs = append(refs, core.ComponentRef{Object: obj.ID, Start: start})
		}
		id, err := db.AddMultimedia(*name, timebase.Millis, refs, nil)
		if err != nil {
			return err
		}
		obj, _ := db.Get(id)
		fmt.Printf("created %v\n", obj)
		return nil
	})
}

func cmdPlay(args []string) error {
	fs := flag.NewFlagSet("play", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	fidelity := fs.String("fidelity", "full", `"full" or "base" (scaled playback)`)
	work := fs.Duration("work", 0, "simulated processing cost per byte (e.g. 1µs)")
	fs.Parse(args)
	return withDB(fs, *dir, func(db *catalog.DB) error {
		obj, err := db.Lookup(*name)
		if err != nil {
			return err
		}
		opts := player.Options{MaxLayer: -1, WorkPerByte: *work}
		if *fidelity == "base" {
			opts.MaxLayer = 0
		}
		clock := &player.VirtualClock{}
		var sink player.Discard
		var rep player.Report
		switch obj.Class {
		case core.ClassMultimedia:
			rep, err = player.PlayComposition(db, obj.ID, clock, &sink, opts)
		case core.ClassNonDerived:
			it, ierr := db.Interpretation(obj.Blob)
			if ierr != nil {
				return ierr
			}
			rep, err = player.Play(it, []string{obj.Track}, clock, &sink, opts)
		default:
			return fmt.Errorf("play a stored or multimedia object (materialize derived objects first)")
		}
		if err != nil {
			return err
		}
		fmt.Printf("played %q: %d events, %d B, ran %v\n", *name, sink.Events, sink.Bytes, rep.Duration.Round(time.Millisecond))
		for _, tr := range rep.Tracks {
			fmt.Printf("  %-12s %5d events %9d B  max jitter %v\n", tr.Track, tr.Events, tr.Bytes, tr.MaxJitter)
		}
		if rep.MaxSkew > 0 {
			fmt.Printf("  max sync skew %v\n", rep.MaxSkew)
		}
		return nil
	})
}

func cmdOps(args []string) error {
	for _, name := range derive.Ops() {
		op, err := derive.Lookup(name)
		if err != nil {
			return err
		}
		lo, hi := op.Arity()
		arity := fmt.Sprintf("%d..%d", lo, hi)
		if hi < 0 {
			arity = fmt.Sprintf("%d..n", lo)
		}
		fmt.Printf("%-18s %-18s inputs %-5s → %v\n", name, op.Category(), arity, op.ResultKind())
	}
	return nil
}

// cmdExport materializes an object into standard interchange files:
// audio → .wav, music → .mid, video → numbered .ppm frames,
// image → .ppm.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	out := fs.String("out", ".", "output directory")
	limit := fs.Int("frames", 25, "max video frames to export")
	fs.Parse(args)
	return withDB(fs, *dir, func(db *catalog.DB) error {
		obj, err := db.Lookup(*name)
		if err != nil {
			return err
		}
		v, err := db.Expand(obj.ID)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		switch v.Kind {
		case media.KindAudio:
			path := filepath.Join(*out, *name+".wav")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := export.WriteWAV(f, v.Audio, int(v.Rate.Frequency())); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d sample frames)\n", path, v.Audio.Frames())
		case media.KindMusic:
			path := filepath.Join(*out, *name+".mid")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := export.WriteSMF(f, v.Music); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d events)\n", path, len(v.Music.Events))
		case media.KindImage:
			path := filepath.Join(*out, *name+".ppm")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := export.WritePPM(f, v.Image); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		case media.KindVideo:
			n := len(v.Video)
			if n > *limit {
				n = *limit
			}
			for i := 0; i < n; i++ {
				path := filepath.Join(*out, fmt.Sprintf("%s-%04d.ppm", *name, i))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := export.WritePPM(f, v.Video[i]); err != nil {
					f.Close()
					return err
				}
				f.Close()
			}
			fmt.Printf("wrote %d frames to %s/%s-NNNN.ppm\n", n, *out, *name)
		default:
			return fmt.Errorf("cannot export kind %v", v.Kind)
		}
		return nil
	})
}

// cmdImport ingests external interchange files: .wav audio, .mid
// music, .ppm images.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new object name (required)")
	file := fs.String("file", "", "input file: .wav, .mid or .ppm (required)")
	fs.Parse(args)
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	return withDB(fs, *dir, func(db *catalog.DB) error {
		var value *derive.Value
		switch {
		case strings.HasSuffix(*file, ".wav"):
			buf, rate, err := export.ReadWAV(f)
			if err != nil {
				return err
			}
			tsys, err := timebase.New(int64(rate), 1)
			if err != nil {
				return err
			}
			value = derive.AudioValue(buf, tsys)
		case strings.HasSuffix(*file, ".mid"):
			seq, err := export.ReadSMF(f)
			if err != nil {
				return err
			}
			value = derive.MusicValue(seq)
		case strings.HasSuffix(*file, ".ppm"):
			img, err := export.ReadPPM(f)
			if err != nil {
				return err
			}
			value = derive.ImageValue(img)
		default:
			return fmt.Errorf("unknown file type %q (want .wav, .mid or .ppm)", *file)
		}
		id, err := db.Ingest(*name, value, catalog.IngestOptions{})
		if err != nil {
			return err
		}
		obj, _ := db.Get(id)
		fmt.Printf("imported %v\n", obj)
		return nil
	})
}

// cmdRender rasterizes a multimedia object's spatial composition at an
// axis tick into a PPM image.
func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "multimedia object name (required)")
	tick := fs.Int64("tick", 0, "axis tick (ms on the default axis)")
	width := fs.Int("width", 320, "canvas width")
	height := fs.Int("height", 240, "canvas height")
	out := fs.String("out", "composition.ppm", "output PPM path")
	fs.Parse(args)
	return withDB(fs, *dir, func(db *catalog.DB) error {
		obj, err := db.Lookup(*name)
		if err != nil {
			return err
		}
		f, err := db.RenderCompositionFrame(obj.ID, *tick, *width, *height)
		if err != nil {
			return err
		}
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := export.WritePPM(file, f); err != nil {
			return err
		}
		fmt.Printf("rendered %q at tick %d → %s (%dx%d)\n", *name, *tick, *out, *width, *height)
		return nil
	})
}
