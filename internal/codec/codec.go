// Package codec implements the compression substrates the paper's
// examples depend on, written from scratch over the stdlib:
//
//   - PCM: trivial sample packing (lossless).
//   - ADPCM: IMA-style adaptive differential PCM, 4:1, block-based
//     with per-block varying parameters — the paper's example of a
//     heterogeneous stream.
//   - vjpg: an intraframe transform-free image codec (quantize +
//     2-D DPCM prediction + RLE/varint entropy). Every frame is a
//     key frame, so rearrangement/reverse play is easy — the
//     structural property the paper attributes to (M)JPEG.
//   - vmpg: an interframe codec with key frames and interpolated
//     intermediate frames stored out of presentation order ("with a
//     sequence of four elements where the first and last are keys, the
//     placement order could be 1,4,2,3") — the structural property the
//     paper attributes to MPEG.
//
// These are simulations of the *structure* of JPEG/MPEG-class codecs,
// not bit-compatible implementations (see DESIGN.md §5): variable
// element sizes, quality-factor-driven rate, key/intermediate decode
// dependencies, and scalability all behave as the data model requires.
package codec

import (
	"errors"

	"timedmedia/internal/media"
)

// Shared errors.
var (
	ErrCorrupt     = errors.New("codec: corrupt data")
	ErrBadQuality  = errors.New("codec: unsupported quality factor")
	ErrBadGeometry = errors.New("codec: frame geometry mismatch")
)

// QuantizerFor maps a descriptive video quality factor to the
// quantization step of the vjpg/vmpg coders. The paper insists these
// numeric parameters stay invisible at the data modeling level; this
// is the single place where the mapping lives.
func QuantizerFor(q media.Quality) int {
	switch q {
	case media.QualityPreview:
		return 20
	case media.QualityVHS:
		return 12
	case media.QualityBroadcast:
		return 4
	case media.QualityStudio:
		return 1
	default:
		return 12
	}
}
