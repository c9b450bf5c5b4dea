package catalog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"timedmedia/internal/anim"
	"timedmedia/internal/audio"
	"timedmedia/internal/codec"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/music"
	"timedmedia/internal/telemetry"
)

// Expansion errors.
var (
	ErrCannotExpand = errors.New("catalog: cannot expand object")
	ErrBadEncoding  = errors.New("catalog: unsupported track encoding")
)

// Expand materializes a media object into element data (the paper's
// "expand derived objects to produce actual (i.e., non-derived)
// objects"). Non-derived objects decode from their interpretation;
// derived objects expand their inputs recursively and apply the
// derivation operator.
//
// Results go through the expansion cache: a byte-bounded LRU with
// singleflight deduplication, so concurrent Expand calls for the same
// object share one decode and resident bytes stay under the
// configured capacity (see internal/expcache).
func (db *DB) Expand(id core.ID) (*derive.Value, error) {
	return db.CurrentView().expand(context.Background(), id)
}

// expand is the shared implementation, resolving in v at its seq; the
// cache is keyed by ID alone, as only multimedia objects are ever
// revised and an ID's derivation and its BLOB's one interpretation
// never change. ctx carries the caller's trace (if any); it is
// consulted only on the miss path, keeping the warm cache hit free of
// telemetry work.
func (v *View) expand(ctx context.Context, id core.ID) (*derive.Value, error) {
	// Object resolution stays outside the cached computation so a
	// missing ID fails fast without occupying a flight slot.
	obj, err := v.Get(id)
	if err != nil {
		return nil, err
	}
	switch obj.Class {
	case core.ClassMultimedia:
		return nil, fmt.Errorf("%w: %v is a multimedia object (play it instead)", ErrCannotExpand, id)
	case core.ClassNonDerived:
		// Before the cache: a value cached before the collection must
		// not outlive the BLOB's bytes for a read of the past.
		if err := v.collected(obj.Blob); err != nil {
			return nil, err
		}
	}
	// Resident-value fast path: skips building the compute closure, so
	// a warm hit costs the same as before telemetry existed. Misses
	// (and joins of an in-flight decode) fall through to Do, which
	// re-checks under the same lock.
	if val, ok := v.db.cache.Get(id); ok {
		return val, nil
	}
	return v.db.cache.Do(id, func() (*derive.Value, int64, error) {
		var val *derive.Value
		var err error
		switch obj.Class {
		case core.ClassNonDerived:
			done := telemetry.StartSpan(ctx, "decode")
			start := time.Now()
			val, err = v.decodeTrack(obj)
			if t := v.db.tel.Load(); t != nil {
				t.decode.Observe(time.Since(start))
			}
			done()
		case core.ClassDerived:
			val, err = v.expandDerived(ctx, obj)
		}
		if err != nil {
			return nil, 0, err
		}
		return val, val.SizeBytes(), nil
	})
}

// ExpandContext is Expand with cancellation checkpoints at the
// request boundary: a canceled or expired context fails before any
// decode starts and again before the result is returned. The decode
// itself runs to completion regardless — it is shared with concurrent
// requests through the cache's singleflight, so one caller's
// cancellation must not poison the others' result.
//
// The whole expansion (cache hit or miss) is recorded as an "expand"
// span on the request trace and in the expand stage histogram.
func (db *DB) ExpandContext(ctx context.Context, id core.ID) (*derive.Value, error) {
	return db.CurrentView().ExpandContext(ctx, id)
}

// ExpandContext is DB.ExpandContext resolving in this view.
func (v *View) ExpandContext(ctx context.Context, id core.ID) (*derive.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	done := telemetry.StartSpan(ctx, "expand")
	start := time.Now()
	val, err := v.expand(ctx, id)
	if t := v.db.tel.Load(); t != nil {
		t.expand.Observe(time.Since(start))
	}
	done()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return val, nil
}

// InvalidateCache drops all cached expansions (benchmarks use this to
// measure cold expansion).
func (db *DB) InvalidateCache() { db.cache.Purge() }

// expandWorkers bounds the fan-out when expanding a derivation's
// inputs in parallel.
func expandWorkers(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

// expandDerived expands a derivation's inputs — in parallel when there
// are several, since independent inputs decode from independent
// tracks — then applies the operator. Input order is preserved and
// the error of the lowest-index failing input is returned, matching
// the sequential semantics.
func (v *View) expandDerived(ctx context.Context, obj *core.Object) (*derive.Value, error) {
	d := obj.Derivation
	inputs := make([]*derive.Value, len(d.Inputs))
	if len(d.Inputs) <= 1 {
		for i, in := range d.Inputs {
			val, err := v.expand(ctx, in)
			if err != nil {
				return nil, fmt.Errorf("catalog: expanding %v input %v: %w", obj.ID, in, err)
			}
			inputs[i] = val
		}
		return derive.Apply(d.Op, inputs, d.Params)
	}
	errs := make([]error, len(d.Inputs))
	sem := make(chan struct{}, expandWorkers(len(d.Inputs)))
	var wg sync.WaitGroup
	for i, in := range d.Inputs {
		wg.Add(1)
		go func(i int, in core.ID) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			val, err := v.expand(ctx, in)
			if err != nil {
				errs[i] = fmt.Errorf("catalog: expanding %v input %v: %w", obj.ID, in, err)
				return
			}
			inputs[i] = val
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return derive.Apply(d.Op, inputs, d.Params)
}

// decodeTrack decodes a non-derived object's elements from its
// interpretation, dispatching on the track encoding.
func (v *View) decodeTrack(obj *core.Object) (*derive.Value, error) {
	it, err := v.Interpretation(obj.Blob)
	if err != nil {
		return nil, err
	}
	tr, err := it.Track(obj.Track)
	if err != nil {
		return nil, err
	}
	if tr.MediaType().Kind == media.KindImage {
		return decodeImageTrack(it, tr)
	}
	switch enc := tr.MediaType().Encoding(); enc {
	case media.EncodingVJPG:
		return decodeVJPGTrack(it, tr)
	case media.EncodingVMPG:
		return decodeVMPGTrack(it, tr)
	case media.EncodingRawRGB:
		return decodeRawTrack(it, tr)
	case media.EncodingPCM:
		return decodePCMTrack(it, tr)
	case media.EncodingADPCM:
		return decodeADPCMTrack(it, tr)
	case media.EncodingMIDI:
		return decodeMIDITrack(it, tr)
	case media.EncodingScene:
		return decodeSceneTrack(it, tr)
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadEncoding, enc)
	}
}

// decodeVJPGTrack decodes every frame of a vjpg track through one
// decoder, so the frames share its YUV scratch; each still owns its
// pixels, because a cut shares frames with its source and the cache
// accounts for each value on its own.
func decodeVJPGTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	w, h := tr.MediaType().Dimensions()
	frames := make([]*frame.Frame, tr.Len())
	var dec codec.VJPGDecoder
	for i := range frames {
		layers, err := it.PayloadLayers(tr.Name(), i, -1)
		if err != nil {
			return nil, err
		}
		layered := len(layers) >= 2
		bw, bh := w, h
		if layered { // the base layer is half size, as downsample2 makes it
			bw, bh = (w+1)/2, (h+1)/2
		}
		var f *frame.Frame
		if err = checkVJPGDims(layers[0], bw, bh); err == nil {
			if layered {
				f, err = codec.VJPGDecodeLayered(layers[0], layers[1])
			} else {
				f, err = dec.Decode(layers[0])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("catalog: %s[%d]: %w", tr.Name(), i, err)
		}
		frames[i] = f
	}
	return derive.VideoValue(frames, tr.MediaType().Time), nil
}

// checkVJPGDims refuses a vjpg frame whose header claims another size
// than its track's, before anything of the claimed size is allocated:
// three zero runs validly encode a frame of any size in a few bytes, so
// only the track can say how big a frame may be.
func checkVJPGDims(data []byte, w, h int) error {
	fw, fh, err := codec.VJPGDims(data)
	if err != nil {
		return err
	}
	if fw != w || fh != h {
		return fmt.Errorf("%w: frame is %dx%d, track is %dx%d", codec.ErrCorrupt, fw, fh, w, h)
	}
	return nil
}

func decodeVMPGTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	w, h := tr.MediaType().Dimensions()
	packets := make([]codec.VMPGPacket, tr.Len())
	for i := range packets {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		key := tr.Stream().At(i).Desc.Key
		// Keys are vjpg frames; intermediates are checked against them.
		if key {
			if err := checkVJPGDims(data, w, h); err != nil {
				return nil, fmt.Errorf("catalog: %s[%d]: %w", tr.Name(), i, err)
			}
		}
		packets[i] = codec.VMPGPacket{Data: data, Index: i, Key: key}
	}
	frames, err := codec.VMPGDecode(packets)
	if err != nil {
		return nil, err
	}
	return derive.VideoValue(frames, tr.MediaType().Time), nil
}

func decodeImageTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	if tr.Len() != 1 {
		return nil, fmt.Errorf("catalog: image track %q has %d elements", tr.Name(), tr.Len())
	}
	data, err := it.Payload(tr.Name(), 0)
	if err != nil {
		return nil, err
	}
	w, h := tr.MediaType().Dimensions()
	model := media.ColorRGB
	if tr.MediaType().Encoding() == media.EncodingCMYKSep {
		model = media.ColorCMYK
	}
	f := frame.New(w, h, model)
	if len(data) != len(f.Pix) {
		return nil, fmt.Errorf("catalog: image payload %d bytes, want %d", len(data), len(f.Pix))
	}
	copy(f.Pix, data)
	return derive.ImageValue(f), nil
}

func decodeRawTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	w, h := tr.MediaType().Dimensions()
	frames := make([]*frame.Frame, tr.Len())
	for i := range frames {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		if len(data) != w*h*3 {
			return nil, fmt.Errorf("catalog: raw frame %d has %d bytes, want %d", i, len(data), w*h*3)
		}
		f := frame.New(w, h, media.ColorRGB)
		copy(f.Pix, data)
		frames[i] = f
	}
	return derive.VideoValue(frames, tr.MediaType().Time), nil
}

func decodePCMTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	bits, channels := tr.MediaType().AudioLayout()
	var raw []byte
	for i := 0; i < tr.Len(); i++ {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		raw = append(raw, data...)
	}
	var buf *audio.Buffer
	var err error
	if bits == 8 {
		buf, err = codec.PCMDecode8(raw, channels)
	} else {
		buf, err = codec.PCMDecode16(raw, channels)
	}
	if err != nil {
		return nil, err
	}
	return derive.AudioValue(buf, tr.MediaType().Time), nil
}

func decodeADPCMTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	_, channels := tr.MediaType().AudioLayout()
	out := &audio.Buffer{Channels: channels}
	for i := 0; i < tr.Len(); i++ {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		framesInBlock := int(tr.Stream().At(i).Dur)
		blk, err := codec.ADPCMDecodeBlock(data, framesInBlock, channels)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s block %d: %w", tr.Name(), i, err)
		}
		out.Samples = append(out.Samples, blk.Samples...)
	}
	return derive.AudioValue(out, tr.MediaType().Time), nil
}

func decodeMIDITrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	seq := &music.Sequence{Division: tr.MediaType().Time}
	for i := 0; i < tr.Len(); i++ {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		ev, err := music.UnmarshalEvent(data)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s event %d: %w", tr.Name(), i, err)
		}
		seq.Events = append(seq.Events, ev)
	}
	seq.Sort()
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return derive.MusicValue(seq), nil
}

func decodeSceneTrack(it *interp.Interpretation, tr *interp.Track) (*derive.Value, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("catalog: empty scene track %q", tr.Name())
	}
	// Element 0 is the scene header (marked Key); the rest are
	// movements.
	head, err := it.Payload(tr.Name(), 0)
	if err != nil {
		return nil, err
	}
	scene, err := anim.UnmarshalMeta(head)
	if err != nil {
		return nil, err
	}
	for i := 1; i < tr.Len(); i++ {
		data, err := it.Payload(tr.Name(), i)
		if err != nil {
			return nil, err
		}
		m, err := anim.UnmarshalMovement(data)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s movement %d: %w", tr.Name(), i, err)
		}
		scene.Movements = append(scene.Movements, m)
	}
	if err := scene.Validate(); err != nil {
		return nil, err
	}
	return derive.AnimValue(scene), nil
}
