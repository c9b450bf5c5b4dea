package catalog

import (
	"fmt"

	"timedmedia/internal/blob"
	"timedmedia/internal/codec"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/music"
)

// IngestOptions control how a materialized value is encoded into a
// BLOB. Zero values pick sensible defaults.
type IngestOptions struct {
	// TrackName inside the new interpretation; defaults to the kind
	// name ("video", "audio", ...).
	TrackName string
	// Quality is the video quality factor (default VHS, per the
	// paper's running example).
	Quality media.Quality
	// VideoEncoding: media.EncodingVJPG (default), EncodingVMPG or
	// EncodingRawRGB.
	VideoEncoding string
	// GOP is the vmpg key-frame interval (default 6).
	GOP int
	// Layered stores vjpg frames as base+enhancement layers for scaled
	// playback.
	Layered bool
	// AudioBlock is the PCM/ADPCM samples-per-element (default 1764,
	// one PAL frame's worth — the paper's interleave unit).
	AudioBlock int
	// ADPCM selects ADPCM over PCM for audio.
	ADPCM bool
	// Attrs are domain attributes for the new object.
	Attrs map[string]string
}

func (o *IngestOptions) defaults(kind media.Kind) {
	if o.TrackName == "" {
		o.TrackName = kind.String()
	}
	if o.Quality == media.QualityUnspecified {
		o.Quality = media.QualityVHS
	}
	if o.VideoEncoding == "" {
		o.VideoEncoding = media.EncodingVJPG
	}
	if o.GOP == 0 {
		o.GOP = 6
	}
	if o.AudioBlock == 0 {
		o.AudioBlock = 1764
	}
}

// Ingest encodes a materialized value into a fresh BLOB, seals its
// interpretation, registers it, and adds a non-derived media object —
// the capture path of the paper's workflow.
func (db *DB) Ingest(name string, v *derive.Value, opts IngestOptions) (core.ID, error) {
	it, track, err := Encode(db.store, v, opts)
	if err != nil {
		return 0, err
	}
	if err := db.RegisterInterpretation(it); err != nil {
		return 0, err
	}
	return db.AddNonDerived(name, it.BlobID(), track, opts.Attrs)
}

// Encode encodes a materialized value into a fresh BLOB of store with
// Ingest's encoders and returns its sealed interpretation and the name
// of its one track. It touches no catalog: with a private store it
// gives a value the placements of stored media without making it an
// object.
func Encode(store blob.Store, v *derive.Value, opts IngestOptions) (*interp.Interpretation, string, error) {
	if err := v.Validate(); err != nil {
		return nil, "", err
	}
	opts.defaults(v.Kind)
	// Transient store failures (see durable.ErrTransient) are retried
	// with backoff rather than failing the whole capture.
	var id blob.ID
	var b blob.BLOB
	if err := durable.Retry(storeRetries, storeRetryBase, func() error {
		var e error
		id, b, e = store.Create()
		return e
	}); err != nil {
		return nil, "", err
	}
	bu := interp.NewBuilder(id, b)
	var err error
	switch v.Kind {
	case media.KindVideo:
		err = ingestVideo(bu, v, opts)
	case media.KindAudio:
		err = ingestAudio(bu, v, opts)
	case media.KindImage:
		err = ingestImage(bu, v, opts)
	case media.KindMusic:
		err = ingestMusic(bu, v, opts)
	case media.KindAnimation:
		err = ingestAnim(bu, v, opts)
	default:
		err = fmt.Errorf("catalog: cannot ingest kind %v", v.Kind)
	}
	if err != nil {
		return nil, "", err
	}
	it, err := bu.Seal()
	if err != nil {
		return nil, "", err
	}
	return it, opts.TrackName, nil
}

// Materialize expands a derived object and stores the result as a new
// non-derived object — the paper's (b): "'expand' derived objects to
// produce actual (i.e., non-derived) objects", which it does when
// expansion cannot be performed in real time. Here the caller decides
// when: nothing calls Materialize on its own.
func (db *DB) Materialize(id core.ID, name string, opts IngestOptions) (core.ID, error) {
	v, err := db.Expand(id)
	if err != nil {
		return 0, err
	}
	return db.Ingest(name, v, opts)
}

func ingestVideo(bu *interp.Builder, v *derive.Value, opts IngestOptions) error {
	if len(v.Video) == 0 {
		return derive.ErrEmptyResult
	}
	w, h := v.Video[0].Width, v.Video[0].Height
	q := codec.QuantizerFor(opts.Quality)
	switch opts.VideoEncoding {
	case media.EncodingVJPG:
		typ := media.PALVideoType(w, h, opts.Quality, media.EncodingVJPG)
		typ.Time = v.Rate
		bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(int64(len(v.Video))))
		for i, f := range v.Video {
			if opts.Layered {
				base, enh, err := codec.VJPGEncodeLayered(f, q)
				if err != nil {
					return err
				}
				bu.AppendLayered(opts.TrackName, [][]byte{base, enh}, int64(i), 1, media.ElementDescriptor{})
				continue
			}
			data, err := codec.VJPGEncode(f, q)
			if err != nil {
				return err
			}
			bu.Append(opts.TrackName, data, int64(i), 1, media.ElementDescriptor{})
		}
	case media.EncodingVMPG:
		typ := media.PALVideoType(w, h, opts.Quality, media.EncodingVMPG)
		typ.Time = v.Rate
		bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(int64(len(v.Video))))
		packets, err := codec.VMPGEncode(v.Video, q, opts.GOP)
		if err != nil {
			return err
		}
		// Append in storage (decode) order: keys precede their
		// intermediates, reproducing the out-of-order placement.
		for _, p := range packets {
			bu.Append(opts.TrackName, p.Data, int64(p.Index), 1, p.Desc())
		}
	case media.EncodingRawRGB:
		typ := media.RawVideoType(w, h, v.Rate)
		bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(int64(len(v.Video))))
		for i, f := range v.Video {
			bu.Append(opts.TrackName, append([]byte(nil), f.Pix...), int64(i), 1, media.ElementDescriptor{})
		}
	default:
		return fmt.Errorf("catalog: unknown video encoding %q", opts.VideoEncoding)
	}
	return nil
}

func ingestAudio(bu *interp.Builder, v *derive.Value, opts IngestOptions) error {
	buf := v.Audio
	if opts.ADPCM {
		typ := media.ADPCMAudioType(int64(opts.AudioBlock))
		typ.Time = v.Rate
		bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(int64(buf.Frames())))
		blocks, err := codec.ADPCMEncode(buf, opts.AudioBlock)
		if err != nil {
			return err
		}
		start := int64(0)
		for _, blk := range blocks {
			// The varying block parameters are element-descriptor
			// content; record the step index as the quantizer field.
			desc := media.ElementDescriptor{Quantizer: int(blk.Params.StepIndex[0]) + 1}
			bu.Append(opts.TrackName, blk.Data, start, int64(blk.Frames), desc)
			start += int64(blk.Frames)
		}
		return nil
	}
	typ := media.PCMBlockAudioType(int64(opts.AudioBlock))
	typ.Time = v.Rate
	bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(int64(buf.Frames())))
	total := buf.Frames()
	for off := 0; off < total; off += opts.AudioBlock {
		end := off + opts.AudioBlock
		if end > total {
			end = total
		}
		data := codec.PCMEncode16(buf.Slice(off, end))
		bu.Append(opts.TrackName, data, int64(off), int64(end-off), media.ElementDescriptor{})
	}
	return nil
}

func ingestImage(bu *interp.Builder, v *derive.Value, opts IngestOptions) error {
	f := v.Image
	enc := media.EncodingRawRGB
	if f.Model == media.ColorCMYK {
		enc = media.EncodingCMYKSep
	}
	typ := media.ImageType(f.Width, f.Height, f.Model, enc)
	bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(0))
	bu.Append(opts.TrackName, append([]byte(nil), f.Pix...), 0, 0, media.ElementDescriptor{})
	return nil
}

func ingestMusic(bu *interp.Builder, v *derive.Value, opts IngestOptions) error {
	typ := media.MIDIType()
	typ.Time = v.Music.Division
	bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(v.Music.Duration()))
	for _, ev := range v.Music.Events {
		bu.Append(opts.TrackName, music.MarshalEvent(ev), ev.Tick, 0, media.ElementDescriptor{})
	}
	return nil
}

func ingestAnim(bu *interp.Builder, v *derive.Value, opts IngestOptions) error {
	scene := v.Anim
	typ := media.AnimationType(scene.W, scene.H, scene.Rate)
	bu.AddTrack(opts.TrackName, typ, typ.NewDescriptor(scene.Duration()))
	// Header element (scene metadata), then movements.
	bu.Append(opts.TrackName, scene.MarshalMeta(), 0, 0, media.ElementDescriptor{Key: true})
	for _, m := range scene.Movements {
		bu.Append(opts.TrackName, m.Marshal(), m.Tick, m.Dur, media.ElementDescriptor{})
	}
	return nil
}
