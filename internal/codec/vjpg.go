package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// vjpg: the intraframe codec. Pipeline (per the paper's Figure 2
// recipe): RGB → YUV 8:2:2 → per-plane quantization inside a 2-D DPCM
// prediction loop → the residuals range coded under contexts. Every
// frame decodes independently, which is why vjpg streams support frame
// reordering and reverse play cheaply — the property the paper
// attributes to JPEG-compressed video.
//
// Bitstream: "VA" | u8 quantizer | u16 width | u16 height | body, the
// bytes of one range coder over the Y, U and V planes' residuals (see
// arith.go). A plane's values are its quantized residuals against
// LOCO-I's median edge detector (see predict), which sees the row above
// through LOCO-I's context bias correction (see biasState), its state
// reset at each plane.
//
// A "VV" frame holds the same residuals, each plane a Rice-coded
// segment (see entropy.go) — its parameter bytes, then its codes,
// padded to a whole byte — in whichever of layerVert's two modes is
// shorter, with zero runs coded by their length or against the row
// above; earlier builds wrote every frame so, and it decodes to the
// same pixels as the "VA" frame of the same picture. A "VY" frame holds
// them too, every plane coded by run length; so did builds before
// those. A "VB" frame's planes are coded as those are, but its luma
// plane's detector sees the row above as it is; earlier builds wrote
// every frame so. A "VN" frame's planes are all coded as the "VB" luma
// plane is; earlier builds wrote every frame so too, and layered bases
// are still written so. A "VL" frame's planes are coded as those are,
// but predict each pixel from the mean of its left and above
// neighbours; earlier builds wrote every frame so, and vmpg keys are
// still written so (see VMPGEncode). Frames earlier builds stored may
// also open with "VK", mean-predicted and Rice coded without run
// interruption, or "VJ", mean-predicted with tokens coded as uvarints;
// those are decoded, never written.

var vjpgMagics = magics{layerArith: "VA", layerVert: "VV", layerLuma: "VY", layerBias: "VB", layerMED: "VN", layerRice: "VL", layerRice1: "VK", layerVarint: "VJ"}

// VJPGEncode compresses an RGB frame at the given quantizer (see
// QuantizerFor to derive one from a quality factor).
func VJPGEncode(f *frame.Frame, quantizer int) ([]byte, error) {
	return encodeVJPG(f, quantizer, layerArith)
}

// encodeVJPG is VJPGEncode in layer l, layerArith, layerLuma,
// layerBias, layerMED or layerRice: the last writes mean-predicted "VL"
// frames, as vmpg keys are written, and it and the three between write
// frames as earlier builds did. No layerVert encoder is kept: a "VV"
// frame holds a "VY" frame's residuals.
func encodeVJPG(f *frame.Frame, quantizer int, l layer) ([]byte, error) {
	if quantizer < 1 || quantizer > 128 {
		return nil, fmt.Errorf("%w: quantizer %d", ErrBadQuality, quantizer)
	}
	yuv, err := RGBToYUV422(f)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(yuv.Pix)/4)
	out = append(out, vjpgMagics[l]...)
	out = append(out, byte(quantizer))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Width))
	out = binary.BigEndian.AppendUint16(out, uint16(f.Height))
	return appendPlanes(out, yuvPlanes(yuv), quantizer, l), nil
}

// appendPlanes appends the Y, U and V planes of a layer-l vjpg frame at
// quantizer q to out: in layerArith all three in one range coder's
// bytes, in the other layers each a segment of its own.
func appendPlanes(out []byte, planes [3]plane, q int, l layer) []byte {
	var bias biasState
	if l == layerArith {
		e := newRangeEncoder(out)
		var m arithModels
		var rows arithRows
		for pi, p := range planes {
			_, b := planeLayer(l, pi, &bias)
			encodeArithPlane(&e, &m, &rows, planeResiduals(p.pix, p.w, planeQuantizer(q, pi), l, b), p.w)
		}
		return e.flush()
	}
	for pi, p := range planes {
		pl, b := planeLayer(l, pi, &bias)
		out = encodePlane(out, p.pix, p.w, planeQuantizer(q, pi), pl, b)
	}
	return out
}

// planeLayer returns the layer plane pi of a layer-l vjpg frame is
// coded in, and bias, reset, if its predictor sees a bias-corrected
// row above — every plane of a "VA", "VV" or "VY" frame, a "VB" frame's
// chroma planes — or else nil.
func planeLayer(l layer, pi int, bias *biasState) (layer, *biasState) {
	switch {
	case l == layerVert, l == layerArith:
		bias.reset()
		return l, bias
	case l == layerLuma, l == layerBias && pi > 0:
		bias.reset()
		return layerMED, bias
	case l == layerBias:
		return layerMED, nil
	}
	return l, nil
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
// frame, and the bias state of its corrected planes, as scratch for the
// next, so a track's frames share one planar buffer and one corrected
// row instead of allocating them each. The zero value is ready to use.
// A decoder is not safe for concurrent use.
type VJPGDecoder struct {
	yuv     []byte
	bias    biasState
	scratch planeScratch
}

// planeScratch is what a vjpg frame's planes are decoded with besides
// their bias state: a vertical-mode plane's references, and a
// layerArith frame's models and rows.
type planeScratch struct {
	refs   vertRefs
	models arithModels
	rows   arithRows
}

// Decode decompresses a vjpg frame to RGB. The frame it returns owns its
// pixels; nothing of it stays with the decoder.
func (d *VJPGDecoder) Decode(data []byte) (*frame.Frame, error) {
	q, w, h, body, l, err := vjpgHeader(data)
	if err != nil {
		return nil, err
	}
	n := w*h + 2*((w+1)/2)*h
	if cap(d.yuv) < n {
		d.yuv = make([]byte, n)
	}
	yuv := d.yuv[:n]
	if err := decodePlanes(body, yuv, w, h, q, l, &d.bias, &d.scratch); err != nil {
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
	q, w, h, body, l, err := vjpgHeader(data)
	if err != nil {
		return nil, err
	}
	yuv := frame.New(w, h, media.ColorYUV422)
	var bias biasState
	var scratch planeScratch
	if err := decodePlanes(body, yuv.Pix, w, h, q, l, &bias, &scratch); err != nil {
		return nil, err
	}
	return yuv, nil
}

// decodePlanes decodes the Y, U and V planes of a vjpg body in layer l
// into pix, a planar YUV 8:2:2 buffer of w×h, with bias as the
// corrected planes' state and s as the rest of their scratch.
func decodePlanes(body, pix []byte, w, h, q int, l layer, bias *biasState, s *planeScratch) error {
	if l == layerArith {
		d, ok := newRangeDecoder(body)
		if !ok {
			return ErrCorrupt
		}
		for pi, p := range planesOf(pix, w, h) {
			_, b := planeLayer(l, pi, bias)
			var err error
			if d, err = decodeArithPlane(d, body, &s.models, &s.rows, p.pix, p.w, planeQuantizer(q, pi), b); err != nil {
				return err
			}
		}
		if d.off > len(body) {
			return ErrCorrupt
		}
		return nil
	}
	off := 0
	for pi, p := range planesOf(pix, w, h) {
		pl, b := planeLayer(l, pi, bias)
		var n int
		var err error
		if l == layerVarint {
			n, err = decodePlaneVarint(body[off:], p.pix, p.w, planeQuantizer(q, pi), pl)
		} else {
			n, err = decodePlane(body[off:], p.pix, p.w, planeQuantizer(q, pi), pl, b, &s.refs)
		}
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

// VJPGMagic returns the two-byte magic that opens a vjpg frame, which
// names the generation of the codec that wrote it ("VA" now, "VV",
// "VY", "VB", "VN", "VL", "VK" or "VJ" before), and false if data opens with
// none of them. It reads nothing past the magic.
func VJPGMagic(data []byte) (string, bool) {
	l, ok := layerOf(data, vjpgMagics)
	return vjpgMagics[l], ok
}

// VJPGDims returns the dimensions recorded in a vjpg bitstream without
// decoding it.
func VJPGDims(data []byte) (w, h int, err error) {
	_, w, h, _, _, err = vjpgHeader(data)
	return w, h, err
}

// vjpgHeader parses a vjpg frame's header, of any layer, and returns
// the layer its magic names.
func vjpgHeader(data []byte) (q, w, h int, body []byte, l layer, err error) {
	l, ok := layerOf(data, vjpgMagics)
	if len(data) < 7 || !ok {
		return 0, 0, 0, nil, 0, fmt.Errorf("%w: vjpg header", ErrCorrupt)
	}
	q = int(data[2])
	w = int(binary.BigEndian.Uint16(data[3:]))
	h = int(binary.BigEndian.Uint16(data[5:]))
	if q < 1 || q > 128 || w == 0 || h == 0 {
		return 0, 0, 0, nil, 0, fmt.Errorf("%w: vjpg header fields", ErrCorrupt)
	}
	return q, w, h, data[7:], l, nil
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

// encodePlane compresses a byte plane in Rice layer l with in-loop 2-D
// DPCM: each pixel is predicted from its *reconstructed* neighbours by
// the layer's predictor (see predict), and the residual is quantized
// with a mild dead zone (quantizer.roundDiv). Keeping the quantizer
// inside the prediction loop avoids limit-cycle flicker at quantization
// boundaries; the 2-D predictor locks onto gradients in either
// direction, which is where smooth synthetic and natural content
// spends most of its pixels. With bias non-nil the predictor sees the
// row above as bias corrects it (see biasState).
func encodePlane(dst []byte, pix []byte, width, q int, l layer, bias *biasState) []byte {
	return riceEncode(dst, planeResiduals(pix, width, q, l, bias))
}

// planeResiduals returns the quantized residuals encodePlane codes.
func planeResiduals(pix []byte, width, q int, l layer, bias *biasState) []int32 {
	vals := make([]int32, len(pix))
	recon := make([]byte, len(pix))
	z := newQuantizer(q)
	for y0 := 0; y0 < len(pix); y0 += width {
		above, left := rowStart(recon, y0, width, bias)
		for x, v := range pix[y0 : y0+width] {
			pred := predict(left, above, x, l)
			rq := z.roundDiv(int(v) - pred)
			vals[y0+x] = int32(rq)
			left = reconStep(pred, rq, q)
			recon[y0+x] = byte(left)
			if rq != 0 && bias != nil && above != nil {
				bias.update(x, left-pred)
			}
		}
	}
	return vals
}

// rowStart returns what the 2-D predictor sees at the start of the row
// at offset y0 of a reconstructed plane: the row above (nil on the
// first row) — as bias corrects it, with bias non-nil — and a left
// neighbour that makes the row's first prediction come out right — 128
// on the first row, the pixel above on the others, since (above + above
// + 1) / 2 = above, and the median edge detector of two equal
// neighbours is that neighbour.
func rowStart(recon []byte, y0, width int, bias *biasState) (above []byte, left int) {
	if y0 == 0 {
		return nil, 128
	}
	above = recon[y0-width : y0]
	if bias != nil {
		above = bias.correct(above)
	}
	return above, int(above[0])
}

// biasState is LOCO-I's context bias cancellation (Weinberger, Seroussi
// and Sapiro, IEEE TIP 2000; JPEG-LS's lossless thresholds and
// update), kept by the encoder and the decoder alike for one plane, and
// applied to the row above rather than to each prediction: before each
// row below the first, every pixel p[x] of the reconstructed row above
// is moved by its context's correction C to ref[x] = clamp(p[x] + C),
// and the row is predicted from ref. A pixel's context is the pair of
// quantized steps around it in the row above, p[x+1]-p[x] and
// p[x]-p[x-1], a missing neighbour's step counting as 0. Each literal
// — never a zero residual — folds its error, reconstruction minus
// prediction, into its context's bias; it moves the corrections of
// the rows below it, not of its own.
type biasState struct {
	// corr is each context's correction, JPEG-LS's C, clamped to
	// [biasMinC, biasMaxC]. It is read at every pixel, so it is kept
	// apart from acc, and padded past biasContexts so that a context
	// index, a uint8, needs no bounds check.
	corr  [256]int8
	acc   [biasContexts]biasAcc
	ref   []byte // the corrected row above the row being coded
	above []byte // and that row as it was reconstructed
}

// biasAcc is what a context accumulates at its literals, JPEG-LS's B
// and N: the error its correction left, kept in (-N, 0], and the count
// of its literals, from 1, halved with B when it reaches biasReset.
type biasAcc struct{ b, n int32 }

const (
	biasContexts       = 81 // 9 quantized steps on either side
	biasReset          = 64
	biasMinC, biasMaxC = -128, 127
)

// stepLevel maps a step d between neighbours, at stepLevel[d+255], to
// its quantized level 0…8: 4 + sign(d)·level, level 0 at 0, 1 at 1–2,
// 2 at 3–6, 3 at 7–20 and 4 from 21 (JPEG-LS's lossless thresholds 3,
// 7 and 21). The step between two bytes, plus 255, lies inside it, so
// that index needs no bounds check.
var stepLevel = func() (t [512]uint8) {
	for d := -255; d <= 255; d++ {
		lv := 0
		switch a := max(d, -d); {
		case a >= 21:
			lv = 4
		case a >= 7:
			lv = 3
		case a >= 3:
			lv = 2
		case a >= 1:
			lv = 1
		}
		if d < 0 {
			lv = -lv
		}
		t[d+255] = uint8(4 + lv)
	}
	return t
}()

// reset readies s for a new plane: every correction 0, every count 1.
func (s *biasState) reset() {
	s.corr = [256]int8{}
	for i := range s.acc {
		s.acc[i] = biasAcc{n: 1}
	}
}

// correct returns above, the reconstructed row over the next one, as
// its contexts' corrections move it. The slice it returns is s's
// scratch, valid until the next call. It runs at every pixel of a
// corrected plane, so it takes each step once, as the right step of one
// pixel and then the left step of the next; it reads each step's two
// pixels from above, so that the compiler sees the step's index in
// range, and it records no context: update, which runs only at
// literals, finds its pixel's again.
func (s *biasState) correct(above []byte) []byte {
	n := len(above)
	if cap(s.ref) < n {
		s.ref = make([]byte, n)
	}
	ref := s.ref[:n]
	s.above = above
	corr, level := &s.corr, &stepLevel
	// Blocks of pixels first where there is a vector kernel, from pixel
	// 1 to x-1; then pixel 0, and the rest from x on, one at a time.
	left := uint8(4) // the step before pixel 0 counts as 0
	x := correctBlocks(ref, above, corr)
	if x > 0 {
		ref[0] = clamp8(int(above[0]) + int(corr[s.context(0)]))
		left = level[int(above[x])-int(above[x-1])+255]
	}
	p, rest := int(above[x]), above[x+1:]
	out := ref[x : x+len(rest)]
	for i, b := range rest {
		right := level[int(b)-p+255]
		out[i] = clamp8(p + int(corr[right*9+left]))
		p, left = int(b), right
	}
	ref[n-1] = clamp8(p + int(corr[4*9+left])) // and so does the step after the last
	return ref
}

// context returns the context of pixel x of the row correct last
// corrected.
func (s *biasState) context(x int) uint8 {
	above := s.above
	p := int(above[x])
	left, right := uint8(4), uint8(4)
	if x > 0 {
		left = stepLevel[p-int(above[x-1])+255]
	}
	if x+1 < len(above) {
		right = stepLevel[int(above[x+1])-p+255]
	}
	return right*9 + left
}

// update folds e, a literal's reconstruction minus its prediction at
// pixel x of the row below the one correct last corrected, into x's
// context, as JPEG-LS updates B, N and C: add e to B, count the literal,
// halving B and N when N reaches biasReset (JPEG-LS with its RESET at
// 63), and if B is then outside (-N, 0], move C one step toward it, take
// N back out of B and clamp B to the interval's edge.
func (s *biasState) update(x, e int) {
	c := s.context(x)
	t := &s.acc[c]
	b, n := t.b+int32(e), t.n
	if n++; n == biasReset {
		b, n = b>>1, n>>1
	}
	switch {
	case b <= -n:
		b += n
		if s.corr[c] > biasMinC {
			s.corr[c]--
		}
		if b <= -n {
			b = -n + 1
		}
	case b > 0:
		b -= n
		if s.corr[c] < biasMaxC {
			s.corr[c]++
		}
		if b > 0 {
			b = 0
		}
	}
	t.b, t.n = b, n
}

// predict is layer l's 2-D DPCM predictor for pixel x of a row: the
// reconstructed left neighbour on the first row. Below it, layerMED
// and layerVert, the layers from layerMED on, take LOCO-I's median
// edge detector (Weinberger, Seroussi and Sapiro,
// IEEE TIP 2000) of left a, above b and above-left c: min(a,b) if
// c >= max(a,b), max(a,b) if c <= min(a,b), and a+b-c otherwise —
// which is the median of a, b and a+b-c. It follows an edge in either
// direction where the mean blurs it. The other layers take the rounded
// mean of left and above. At x = 0 left is above[0] (rowStart), so
// either predicts above[0], and c there is taken as above[0] too.
func predict(left int, above []byte, x int, l layer) int {
	if above == nil {
		return left
	}
	b := int(above[x])
	if l < layerMED {
		return (left + b + 1) >> 1
	}
	c := int(above[max(x-1, 0)])
	return max(min(left, b), min(max(left, b), left+b-c))
}

// quantizer is a plane's quantizer q as roundDiv uses it, its two
// divisions done once a plane: off is the dead zone's rounding offset
// q/3, and inv = ⌈2^16/q⌉, with which n·inv >> 16 = ⌊n/q⌋ for every
// numerator n roundDiv divides, 0 <= n <= 255 + 128/3: with
// inv·q = 2^16 + e, 0 <= e < q, the product overshoots n/q by
// n·e/(q·2^16), less than 1/q while n·e < 2^16 (TestRoundDivExact checks
// every residual at every quantizer).
type quantizer struct {
	off int
	inv uint32
}

func newQuantizer(q int) quantizer {
	return quantizer{off: q / 3, inv: (1<<16 + uint32(q) - 1) / uint32(q)}
}

// roundDiv quantizes the residual r with a mild dead zone (rounding
// offset q/3 instead of q/2, as hardware video quantizers do): small
// residuals — tracking noise on gradients — quantize to zero more often.
// For r >= 0, r + q/3 = roundDiv(r)·q + m with 0 <= m < q, so the
// reconstruction error r - roundDiv(r)·q = m - q/3 lies in
// [-q/3, q-1-q/3], and likewise for r < 0 with the signs turned.
func (z quantizer) roundDiv(r int) int {
	if r >= 0 {
		return int(uint32(r+z.off) * z.inv >> 16)
	}
	return -int(uint32(-r+z.off) * z.inv >> 16)
}

// decodePlane reverses encodePlane: it reads the plane's tokens, Rice
// coded in layer l (see entropy.go), straight into pix, row by row,
// through bias if it is non-nil, and returns the number of bytes
// consumed. A vertical-mode plane keeps what it reads of its residuals
// in refs. It refuses, as ErrCorrupt, a parameter out of range, a
// spare nibble it does not name, a truncated stream, an overlong unary
// part, a literal past 32 bits, a run past the plane's end — or, coded
// against its reference, not past its own start — and a literal of 0
// after such a run.
func decodePlane(src []byte, pix []byte, width, q int, l layer, bias *biasState, refs *vertRefs) (int, error) {
	r, p, err := newRiceReader(src, l)
	if err != nil {
		return 0, err
	}
	// vr is refs's bits and values in locals, so that moving to the next
	// row swaps no pointers on the heap; a plane not in vertical mode,
	// or of a single row, where no run has a reference, leaves it empty.
	var vr vertRefs
	if p.vertical && len(pix) > width {
		refs.reset(width)
		vr = *refs
	}
	vertical := vr.val != nil
	var (
		w       window
		k       uint64
		u       uint
		ok      bool
		zeros   int               // what is left of the current zero run
		kn, bn  = p.ka, uint64(0) // the next token's parameter and bias
		vlit    bool              // the next token is a literal against
		against int32             // this one, after a vertically coded run
	)
	for y0 := 0; y0 < len(pix); y0 += width {
		row := pix[y0 : y0+width]
		above, left := rowStart(pix, y0, width, bias)
		if vertical && y0 > 0 {
			vr.nextRow()
		}
		for x := 0; x < width; {
			if zeros > 0 {
				end := min(width, x+zeros)
				zeros -= end - x
				left = zeroResiduals(row[x:end], above, x, left, l)
				x = end
				continue
			}
			// r.rice, by hand so that it inlines: the plane's codes
			// are most of its cost.
			if w.n < riceMaxCode {
				if w, ok = r.refill(w); !ok {
					return 0, ErrCorrupt
				}
			}
			w, k, u = w.short(kn)
			if u >= riceCap {
				if w, k, ok = r.escape(w, u); !ok || k+bn > math.MaxUint32 {
					return 0, ErrCorrupt
				}
			}
			if k += bn; k == 0 && !vlit {
				// The run's length under kr — or, if it has a
				// reference c and its flag bit is 1, its end against
				// the reference under kd: one code either way.
				c, kk := -1, p.kr
				if vertical {
					c = vr.ref(x, width, y0+width == len(pix))
				}
				if w.n <= riceMaxCode {
					if w, ok = r.refill(w); !ok {
						return 0, ErrCorrupt
					}
				}
				flag := false
				if c >= 0 {
					flag = w.acc>>63 != 0
					w.acc <<= 1
					w.n--
				}
				if flag {
					kk = p.kd
				}
				w, k, u = w.short(kk)
				if u >= riceCap {
					if w, k, ok = r.escape(w, u); !ok {
						return 0, ErrCorrupt
					}
				}
				// The run ends k+1 pixels on — or, coded against its
				// reference, one pixel before the position below the
				// residual at c, less the code's zigzagged value. A
				// plane holds fewer than maxRun pixels, so a run that
				// does not end it is interrupted.
				s := int64(y0 + x)
				e := s + int64(k) + 1
				if flag {
					e = int64(y0+c) - 1 - int64(unzigzag(k))
					if c < x {
						e += int64(width)
					}
				}
				if e <= s || e > int64(len(pix)) {
					return 0, ErrCorrupt
				}
				zeros = int(e - s)
				kn, bn, vlit = p.kb, p.bias, flag
				if flag {
					kn, bn, against = p.kv, 0, vr.val[c]
				}
				continue
			}
			res := unzigzag(k)
			if vlit {
				if res += against; res == 0 {
					return 0, ErrCorrupt
				}
				vlit = false
			}
			pred := predict(left, above, x, l)
			left = reconStep(pred, int(res), q)
			row[x] = byte(left)
			if vertical {
				vr.set(x, res)
			}
			if bias != nil && above != nil {
				bias.update(x, left-pred)
			}
			x++
			kn, bn = p.ka, 0
		}
	}
	return r.end(w)
}

// decodePlaneVarint is decodePlane for the varint tokens of a "VJ"
// frame. It refuses what entropyDecode refuses, as ErrCorrupt: a
// truncated or overlong varint, a zero run of length 0, and a run past
// the plane's end.
func decodePlaneVarint(src []byte, pix []byte, width, q int, l layer) (int, error) {
	off, zeros := 0, 0
	for y0 := 0; y0 < len(pix); y0 += width {
		row := pix[y0 : y0+width]
		above, left := rowStart(pix, y0, width, nil)
		for x := 0; x < width; {
			if zeros > 0 {
				end := min(width, x+zeros)
				zeros -= end - x
				left = zeroResiduals(row[x:end], above, x, left, l)
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
			left = reconStep(predict(left, above, x, l), int(unzigzag(k)), q)
			row[x] = byte(left)
			x++
		}
	}
	return off, nil
}

// zeroResiduals reconstructs out, the pixels of a row from x on, from
// zero residuals under layer l's predictor — each is its prediction,
// which needs no clamp — and returns the last as the next left.
func zeroResiduals(out, above []byte, x, left int, l layer) int {
	switch {
	case above == nil:
		for i := range out {
			out[i] = byte(left)
		}
		return left
	case l >= layerMED:
		return medRun(out, above, x, left)
	}
	return predictRun(out, above[x:x+len(out)], left)
}

// medRun reconstructs a run of zero residuals below the first row,
// from pixel x on, under the median edge detector. It follows e, a
// pixel's height over the one above it. With e' the left pixel's and
// d = b - c the step along the row above, median(a, b, a+b-c) is
// b + median(e'-d, 0, e'): e keeps its sign and never grows, so only a
// subtract and a compare per pixel wait on the pixel before, and once
// e is 0 every pixel left is the one above it — a copy. It returns the
// last pixel.
func medRun(out, above []byte, x, left int) int {
	c, e := int(above[0]), 0 // at x = 0, left is above[0]
	if x > 0 {
		c = int(above[x-1])
		e = left - c
	}
	above = above[x : x+len(out)]
	out = out[:len(above)]
	for i, b := range above {
		if e == 0 {
			copy(out[i:], above[i:])
			return int(above[len(above)-1])
		}
		d := int(b) - c
		if e > 0 {
			e = max(0, e-max(d, 0))
		} else {
			e = min(0, e-min(d, 0))
		}
		c = int(b)
		out[i] = byte(c + e)
	}
	return int(out[len(out)-1])
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
// to byte range. With quantizer.roundDiv the reconstruction error is
// at most q-1-q/3 (integer division: 7 at q = 12); the clamp only
// brings a pixel nearer its byte-range original.
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
//
// Enhancement bitstream: "VG" | u8 quantizer | u16 width | u16 height |
// one Rice-coded segment of the quantized RGB residuals. Layers earlier
// builds stored open with "VF", Rice coded without run interruption, or
// "VE", coded as uvarints.

var enhMagics = magics{layerRice: "VG", layerRice1: "VF", layerVarint: "VE"}

// VJPGEncodeLayered compresses f into base and enhancement layers. Its
// base is a "VN" frame, not one in the layer VJPGEncode writes: a
// bias-corrected base takes fewer bytes but reconstructs worse at half
// resolution, and the enhancement layer then grows by more than the
// base shrinks (a 50-frame 160×120 clip at VHS quality reads about 5 %
// more in full with a "VB" or "VY" base).
func VJPGEncodeLayered(f *frame.Frame, quantizer int) (base, enh []byte, err error) {
	return encodeLayered(f, quantizer, layerMED)
}

// encodeLayered is VJPGEncodeLayered with its base in vjpg layer l (see
// encodeVJPG).
func encodeLayered(f *frame.Frame, quantizer int, l layer) (base, enh []byte, err error) {
	if f.Model != media.ColorRGB {
		return nil, nil, fmt.Errorf("%w: layered vjpg requires RGB", ErrBadGeometry)
	}
	half := downsample2(f)
	base, err = encodeVJPG(half, quantizer, l)
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
	enh = append(enh, enhMagics[layerRice]...)
	enh = append(enh, byte(quantizer))
	enh = binary.BigEndian.AppendUint16(enh, uint16(f.Width))
	enh = binary.BigEndian.AppendUint16(enh, uint16(f.Height))
	enh = riceEncode(enh, qvals)
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
	l, ok := layerOf(enh, enhMagics)
	if len(enh) < 7 || !ok {
		return nil, fmt.Errorf("%w: enhancement header", ErrCorrupt)
	}
	q := int32(enh[2])
	w := int(binary.BigEndian.Uint16(enh[3:]))
	h := int(binary.BigEndian.Uint16(enh[5:]))
	if q < 1 || q > 128 || w == 0 || h == 0 {
		return nil, fmt.Errorf("%w: enhancement header fields", ErrCorrupt)
	}
	// The base is the enhancement's size halved (see downsample2); a
	// header claiming more would size the upsampled frame on its word.
	if (w+1)/2 != baseRec.Width || (h+1)/2 != baseRec.Height {
		return nil, fmt.Errorf("%w: %dx%d enhancement layer over a %dx%d base", ErrCorrupt, w, h, baseRec.Width, baseRec.Height)
	}
	up := upsample2(baseRec, w, h)
	vals, _, err := decodeSegment(enh[7:], len(up.Pix), l)
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
