package codec

import (
	"encoding/binary"
	"fmt"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// vjpg: the intraframe codec. Pipeline (per the paper's Figure 2
// recipe): RGB → YUV 8:2:2 → per-plane quantization inside a 2-D DPCM
// prediction loop → RLE/varint entropy coding. Every frame decodes
// independently, which is why vjpg streams support frame reordering
// and reverse play cheaply — the property the paper attributes to
// JPEG-compressed video.
//
// Bitstream: "VJ" | u8 quantizer | u16 width | u16 height |
// entropy-coded Y plane | U plane | V plane.

const vjpgMagic = "VJ"

// VJPGEncode compresses an RGB frame at the given quantizer (see
// QuantizerFor to derive one from a quality factor).
func VJPGEncode(f *frame.Frame, quantizer int) ([]byte, error) {
	if quantizer < 1 || quantizer > 128 {
		return nil, fmt.Errorf("%w: quantizer %d", ErrBadQuality, quantizer)
	}
	yuv, err := RGBToYUV422(f)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(yuv.Pix)/4)
	out = append(out, vjpgMagic...)
	out = append(out, byte(quantizer))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Width))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Height))
	for pi, p := range yuvPlanes(yuv) {
		out = encodePlane(out, p.pix, p.w, planeQuantizer(quantizer, pi))
	}
	return out, nil
}

// planeQuantizer coarsens chrominance quantization relative to luma —
// the paper's Figure 2 recipe gives chroma a fraction of the bits the
// luma plane gets.
func planeQuantizer(q, plane int) int {
	if plane == 0 {
		return q
	}
	cq := q * 2
	if cq > 128 {
		cq = 128
	}
	return cq
}

// VJPGDecode decompresses a vjpg frame back to RGB.
func VJPGDecode(data []byte) (*frame.Frame, error) {
	var d VJPGDecoder
	return d.Decode(data)
}

// VJPGDecoder decodes vjpg frames to RGB and keeps the YUV planes of one
// frame as scratch for the next, so a track's frames share one planar
// buffer instead of allocating one each. The zero value is ready to use.
// A decoder is not safe for concurrent use.
type VJPGDecoder struct {
	yuv []byte
}

// Decode decompresses a vjpg frame to RGB. The frame it returns owns its
// pixels; nothing of it stays with the decoder.
func (d *VJPGDecoder) Decode(data []byte) (*frame.Frame, error) {
	q, w, h, body, err := vjpgHeader(data)
	if err != nil {
		return nil, err
	}
	n := w*h + 2*((w+1)/2)*h
	if cap(d.yuv) < n {
		d.yuv = make([]byte, n)
	}
	yuv := d.yuv[:n]
	if err := decodePlanes(body, yuv, w, h, q); err != nil {
		return nil, err
	}
	out := frame.New(w, h, media.ColorRGB)
	yuv422ToRGB(out.Pix, yuv, w, h)
	return out, nil
}

// VJPGDecodeYUV decompresses a vjpg frame to the internal planar
// YUV 8:2:2 representation, skipping the RGB conversion. Interframe
// coding (vmpg) predicts in this domain.
func VJPGDecodeYUV(data []byte) (*frame.Frame, error) {
	q, w, h, body, err := vjpgHeader(data)
	if err != nil {
		return nil, err
	}
	yuv := frame.New(w, h, media.ColorYUV422)
	if err := decodePlanes(body, yuv.Pix, w, h, q); err != nil {
		return nil, err
	}
	return yuv, nil
}

// decodePlanes decodes the Y, U and V planes of a vjpg body into pix,
// a planar YUV 8:2:2 buffer of w×h.
func decodePlanes(body, pix []byte, w, h, q int) error {
	off := 0
	for pi, p := range planesOf(pix, w, h) {
		n, err := decodePlane(body[off:], p.pix, p.w, planeQuantizer(q, pi))
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

// VJPGDims returns the dimensions recorded in a vjpg bitstream without
// decoding it.
func VJPGDims(data []byte) (w, h int, err error) {
	_, w, h, _, err = vjpgHeader(data)
	return w, h, err
}

func vjpgHeader(data []byte) (q, w, h int, body []byte, err error) {
	if len(data) < 7 || string(data[:2]) != vjpgMagic {
		return 0, 0, 0, nil, fmt.Errorf("%w: vjpg header", ErrCorrupt)
	}
	q = int(data[2])
	w = int(binary.BigEndian.Uint16(data[3:]))
	h = int(binary.BigEndian.Uint16(data[5:]))
	if q < 1 || q > 128 || w == 0 || h == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: vjpg header fields", ErrCorrupt)
	}
	return q, w, h, data[7:], nil
}

type plane struct {
	pix []byte
	w   int
}

// yuvPlanes exposes the three planes of a planar YUV422 frame.
func yuvPlanes(f *frame.Frame) [3]plane { return planesOf(f.Pix, f.Width, f.Height) }

// planesOf splits a planar YUV422 buffer of w×h into its three planes.
func planesOf(pix []byte, w, h int) [3]plane {
	cw := (w + 1) / 2
	return [3]plane{
		{pix: pix[:w*h], w: w},
		{pix: pix[w*h : w*h+cw*h], w: cw},
		{pix: pix[w*h+cw*h:], w: cw},
	}
}

// encodePlane compresses a byte plane with in-loop 2-D DPCM: each
// pixel is predicted from the average of the *reconstructed* left and
// above neighbors and the residual is quantized with a dead zone
// (truncation toward zero). Keeping the quantizer inside the
// prediction loop avoids limit-cycle flicker at quantization
// boundaries; the 2-D predictor locks onto gradients in either
// direction, which is where smooth synthetic and natural content
// spends most of its pixels.
func encodePlane(dst []byte, pix []byte, width, q int) []byte {
	vals := make([]int32, len(pix))
	recon := make([]byte, len(pix))
	for y0 := 0; y0 < len(pix); y0 += width {
		above, left := rowStart(recon, y0, width)
		for x, v := range pix[y0 : y0+width] {
			pred := predict(left, above, x)
			rq := roundDiv(int(v)-pred, q)
			vals[y0+x] = int32(rq)
			left = reconStep(pred, rq, q)
			recon[y0+x] = byte(left)
		}
	}
	return entropyEncode(dst, vals)
}

// rowStart returns what the 2-D predictor sees at the start of the row
// at offset y0 of a reconstructed plane: the row above (nil on the
// first row), and a left neighbour that makes the row's first
// prediction come out right — 128 on the first row, the pixel above on
// the others, since (above + above + 1) / 2 = above.
func rowStart(recon []byte, y0, width int) (above []byte, left int) {
	if y0 == 0 {
		return nil, 128
	}
	above = recon[y0-width : y0]
	return above, int(above[0])
}

// predict is the 2-D DPCM predictor for pixel x of a row: the
// reconstructed left neighbour on the first row, and elsewhere the
// rounded mean of the left and above neighbours.
func predict(left int, above []byte, x int) int {
	if above == nil {
		return left
	}
	return (left + int(above[x]) + 1) >> 1
}

// roundDiv quantizes with a mild dead zone (rounding offset q/3
// instead of q/2, as hardware video quantizers do): small residuals —
// tracking noise on gradients — quantize to zero more often, while the
// reconstruction error stays bounded by 2q/3.
func roundDiv(r, q int) int {
	if r >= 0 {
		return (r + q/3) / q
	}
	return -((-r + q/3) / q)
}

// decodePlane reverses encodePlane: it reads the plane's entropy tokens
// (see entropy.go) straight into pix, row by row, and returns the
// number of bytes consumed. It refuses what entropyDecode refuses, as
// ErrCorrupt: a truncated or overlong varint, a zero run of length 0,
// and a run past the plane's end.
func decodePlane(src []byte, pix []byte, width, q int) (int, error) {
	off, zeros := 0, 0 // zeros: what is left of the current zero run
	for y0 := 0; y0 < len(pix); y0 += width {
		row := pix[y0 : y0+width]
		above, left := rowStart(pix, y0, width)
		for x := 0; x < width; {
			if zeros > 0 {
				// A zero residual reconstructs the prediction itself,
				// which needs no clamp.
				end := min(width, x+zeros)
				zeros -= end - x
				if above == nil {
					for ; x < end; x++ {
						row[x] = byte(left)
					}
					continue
				}
				left = predictRun(row[x:end], above[x:end], left)
				x = end
				continue
			}
			k, n := binary.Uvarint(src[off:])
			if n <= 0 {
				return 0, ErrCorrupt
			}
			off += n
			if k == 0 {
				run, n := binary.Uvarint(src[off:])
				if n <= 0 || run == 0 || run > uint64(len(pix)-y0-x) {
					return 0, ErrCorrupt
				}
				off += n
				zeros = int(run)
				continue
			}
			left = reconStep(predict(left, above, x), int(unzigzag(k)), q)
			row[x] = byte(left)
			x++
		}
	}
	return off, nil
}

// predictRun reconstructs a run of zero residuals below the first row:
// each pixel is its 2-D prediction, p = (left + above + 1) >> 1, and
// becomes the next pixel's left. It returns the last. That chain is one
// long serial dependency, so it is taken four pixels at a time: nested
// halvings fold into one, ⌊(⌊n/2⌋ + m) / 2⌋ = ⌊(n + 2m) / 4⌋, which puts
// pixel j of a block at (left + Σ_{i≤j} 2^i (above_i + 1)) >> (j+1). The
// sums do not depend on left, so only one add and one shift per block
// wait for the block before.
func predictRun(out, above []byte, left int) int {
	out = out[:len(above)]
	for len(above) >= 4 {
		t0 := int(above[0]) + 1
		t1 := t0 + 2*int(above[1]) + 2
		t2 := t1 + 4*int(above[2]) + 4
		t3 := t2 + 8*int(above[3]) + 8
		_ = out[3]
		out[0] = byte((left + t0) >> 1)
		out[1] = byte((left + t1) >> 2)
		out[2] = byte((left + t2) >> 3)
		left = (left + t3) >> 4
		out[3] = byte(left)
		out, above = out[4:], above[4:]
	}
	for i, a := range above {
		left = (left + int(a) + 1) >> 1
		out[i] = byte(left)
	}
	return left
}

// reconStep applies a dequantized residual to the prediction, clamping
// to byte range. With the rounding quantizer the reconstruction error
// is bounded by q/2.
func reconStep(pred, rq, q int) int {
	v := pred + rq*q
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// Layered (scalable) vjpg — the paper's scalability item: "a digital
// video sequence recorded at very high resolution may be presented in
// an environment requiring, or only capable of, much lower resolution
// ... bandwidth can be saved and processing reduced if the video
// sequence is 'scaled' to a lower resolution by ignoring parts of the
// storage unit."
//
// VJPGEncodeLayered produces a base layer (half-resolution vjpg) and
// an enhancement layer (full-resolution residual against the upsampled
// base). Reading only the base layer yields a usable low-fidelity
// frame at a fraction of the bytes.

// VJPGEncodeLayered compresses f into base and enhancement layers.
func VJPGEncodeLayered(f *frame.Frame, quantizer int) (base, enh []byte, err error) {
	if f.Model != media.ColorRGB {
		return nil, nil, fmt.Errorf("%w: layered vjpg requires RGB", ErrBadGeometry)
	}
	half := downsample2(f)
	base, err = VJPGEncode(half, quantizer)
	if err != nil {
		return nil, nil, err
	}
	baseRec, err := VJPGDecode(base)
	if err != nil {
		return nil, nil, err
	}
	up := upsample2(baseRec, f.Width, f.Height)
	// Enhancement: residual of f against up, coded like a plane.
	vals := make([]int32, len(f.Pix))
	for i := range f.Pix {
		vals[i] = int32(int(f.Pix[i]) - int(up.Pix[i]))
	}
	qvals := make([]int32, len(vals))
	for i, v := range vals {
		qvals[i] = quantInt32(v, int32(quantizer))
	}
	enh = make([]byte, 0, len(f.Pix)/8)
	enh = append(enh, 'V', 'E', byte(quantizer))
	enh = binary.BigEndian.AppendUint16(enh, uint16(f.Width))
	enh = binary.BigEndian.AppendUint16(enh, uint16(f.Height))
	enh = entropyEncode(enh, qvals)
	return base, enh, nil
}

// VJPGDecodeBase decodes only the base layer, returning the
// half-resolution frame.
func VJPGDecodeBase(base []byte) (*frame.Frame, error) { return VJPGDecode(base) }

// VJPGDecodeLayered decodes base + enhancement into the full
// resolution frame.
func VJPGDecodeLayered(base, enh []byte) (*frame.Frame, error) {
	baseRec, err := VJPGDecode(base)
	if err != nil {
		return nil, err
	}
	if len(enh) < 7 || enh[0] != 'V' || enh[1] != 'E' {
		return nil, fmt.Errorf("%w: enhancement header", ErrCorrupt)
	}
	q := int32(enh[2])
	w := int(binary.BigEndian.Uint16(enh[3:]))
	h := int(binary.BigEndian.Uint16(enh[5:]))
	if q < 1 || w == 0 || h == 0 {
		return nil, fmt.Errorf("%w: enhancement header fields", ErrCorrupt)
	}
	// The base is the enhancement's size halved (see downsample2); a
	// header claiming more would size the upsampled frame on its word.
	if (w+1)/2 != baseRec.Width || (h+1)/2 != baseRec.Height {
		return nil, fmt.Errorf("%w: %dx%d enhancement layer over a %dx%d base", ErrCorrupt, w, h, baseRec.Width, baseRec.Height)
	}
	up := upsample2(baseRec, w, h)
	vals, _, err := entropyDecode(enh[7:], len(up.Pix))
	if err != nil {
		return nil, err
	}
	for i, d := range vals {
		up.Pix[i] = clamp8(int(up.Pix[i]) + int(d*q))
	}
	return up, nil
}

func quantInt32(v, q int32) int32 {
	if v >= 0 {
		return (v + q/2) / q
	}
	return -((-v + q/2) / q)
}

// downsample2 halves both dimensions by 2x2 box averaging.
func downsample2(f *frame.Frame) *frame.Frame {
	w2, h2 := (f.Width+1)/2, (f.Height+1)/2
	out := frame.New(w2, h2, media.ColorRGB)
	for y := 0; y < h2; y++ {
		for x := 0; x < w2; x++ {
			var rs, gs, bs, n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sx, sy := 2*x+dx, 2*y+dy
					if sx >= f.Width || sy >= f.Height {
						continue
					}
					r, g, b := f.RGB(sx, sy)
					rs += int(r)
					gs += int(g)
					bs += int(b)
					n++
				}
			}
			out.SetRGB(x, y, byte(rs/n), byte(gs/n), byte(bs/n))
		}
	}
	return out
}

// upsample2 scales a frame to the given dimensions by pixel doubling.
func upsample2(f *frame.Frame, w, h int) *frame.Frame {
	out := frame.New(w, h, media.ColorRGB)
	for y := 0; y < h; y++ {
		sy := y / 2
		if sy >= f.Height {
			sy = f.Height - 1
		}
		for x := 0; x < w; x++ {
			sx := x / 2
			if sx >= f.Width {
				sx = f.Width - 1
			}
			r, g, b := f.RGB(sx, sy)
			out.SetRGB(x, y, r, g, b)
		}
	}
	return out
}
