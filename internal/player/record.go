package player

import (
	"fmt"

	"timedmedia/internal/audio"
	"timedmedia/internal/blob"
	"timedmedia/internal/codec"
	"timedmedia/internal/frame"
	"timedmedia/internal/interp"
	"timedmedia/internal/media"
	"timedmedia/internal/timebase"
)

// The record path: capture synthetic A/V into an interleaved BLOB
// while building the interpretation incrementally, exactly as
// Section 4.1 recommends ("a single, complete, interpretation which is
// built up as the BLOB is captured").

// CaptureOptions configure an A/V capture.
type CaptureOptions struct {
	// VideoTrack and AudioTrack name the two tracks (Figure 2's
	// "video1"/"audio1" by default).
	VideoTrack, AudioTrack string
	// Quality is the video quality factor (default VHS).
	Quality media.Quality
	// Layered stores scalable video (base + enhancement per frame).
	Layered bool
	// PadTo pads each interleave unit (frame + audio block) to a
	// multiple of this many bytes, matching storage transfer rates as
	// in CD-I; zero disables padding.
	PadTo int
}

// CaptureAV digitizes a frame sequence with accompanying audio into a
// single interleaved BLOB — the Figure 2 layout, "audio samples
// following the associated video frame" — and returns the sealed
// interpretation. The audio is sliced into per-frame blocks (1764
// sample pairs per PAL frame at 44.1 kHz).
func CaptureAV(store blob.Store, frames []*frame.Frame, rate timebase.System, buf *audio.Buffer, audioRate timebase.System, opts CaptureOptions) (*interp.Interpretation, error) {
	if len(frames) == 0 {
		return nil, ErrNoTracks
	}
	if opts.VideoTrack == "" {
		opts.VideoTrack = "video1"
	}
	if opts.AudioTrack == "" {
		opts.AudioTrack = "audio1"
	}
	if opts.Quality == media.QualityUnspecified {
		opts.Quality = media.QualityVHS
	}
	samplesPerFrame, err := timebase.Rescale(1, rate, audioRate)
	if err != nil {
		return nil, err
	}
	id, b, err := store.Create()
	if err != nil {
		return nil, err
	}
	w, h := frames[0].Width, frames[0].Height
	vType := media.PALVideoType(w, h, opts.Quality, media.EncodingVJPG)
	vType.Time = rate
	aType := media.PCMBlockAudioType(samplesPerFrame)
	aType.Time = audioRate

	bu := interp.NewBuilder(id, b).
		AddTrack(opts.VideoTrack, vType, vType.NewDescriptor(int64(len(frames)))).
		AddTrack(opts.AudioTrack, aType, aType.NewDescriptor(int64(buf.Frames())))

	q := codec.QuantizerFor(opts.Quality)
	written := int64(0)
	for i, f := range frames {
		unitStart := bu.Size()
		if opts.Layered {
			base, enh, err := codec.VJPGEncodeLayered(f, q)
			if err != nil {
				return nil, err
			}
			bu.AppendLayered(opts.VideoTrack, [][]byte{base, enh}, int64(i), 1, media.ElementDescriptor{})
		} else {
			data, err := codec.VJPGEncode(f, q)
			if err != nil {
				return nil, err
			}
			bu.Append(opts.VideoTrack, data, int64(i), 1, media.ElementDescriptor{})
		}
		// The associated audio block follows its video frame.
		from := int64(i) * samplesPerFrame
		to := from + samplesPerFrame
		if from >= int64(buf.Frames()) {
			continue
		}
		if to > int64(buf.Frames()) {
			to = int64(buf.Frames())
		}
		pcm := codec.PCMEncode16(buf.Slice(int(from), int(to)))
		bu.Append(opts.AudioTrack, pcm, from, to-from, media.ElementDescriptor{})
		if opts.PadTo > 0 {
			unit := bu.Size() - unitStart
			if rem := int(unit) % opts.PadTo; rem != 0 {
				bu.Pad(opts.PadTo - rem)
			}
		}
		written = to
	}
	if written < int64(buf.Frames()) {
		// Trailing audio beyond the last frame.
		pcm := codec.PCMEncode16(buf.Slice(int(written), buf.Frames()))
		bu.Append(opts.AudioTrack, pcm, written, int64(buf.Frames())-written, media.ElementDescriptor{})
	}
	it, err := bu.Seal()
	if err != nil {
		return nil, fmt.Errorf("player: capture: %w", err)
	}
	return it, nil
}
