package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// refVJPGDecode is the straightforward vjpg decoder the one-pass kernel
// replaced, kept as the fuzz oracle: every plane's residuals are entropy
// decoded into a slice first by the reference readers (refSegments),
// then reconstructed pixel by pixel with a predictor that finds its
// neighbours by index arithmetic — every plane of a "VA", "VV" or "VY"
// frame and a "VB" frame's chroma planes through refBiasPlane — and the
// result is converted to RGB pixel by pixel (refYUV422ToRGB). It
// returns the YUV reconstruction and the RGB frame.
func refVJPGDecode(data []byte) (yuv, rgb *frame.Frame, err error) {
	q, w, h, _, l, err := vjpgHeader(data)
	if err != nil {
		return nil, nil, err
	}
	segs, err := refSegments(data)
	if err != nil {
		return nil, nil, err
	}
	predict := refPredict2D
	if l >= layerMED {
		predict = refPredictMED
	}
	yuv = frame.New(w, h, media.ColorYUV422)
	for pi, p := range yuvPlanes(yuv) {
		if l >= layerLuma || l == layerBias && pi > 0 {
			refBiasPlane(p.pix, segs[pi], p.w, planeQuantizer(q, pi))
			continue
		}
		for i, d := range segs[pi] {
			p.pix[i] = byte(reconStep(predict(p.pix, i, p.w), int(d), planeQuantizer(q, pi)))
		}
	}
	rgb = frame.New(w, h, media.ColorRGB)
	rgb.Pix = refYUV422ToRGB(yuv.Pix, w, h)
	return yuv, rgb, nil
}

// refPredict2D averages the reconstructed left and above neighbours of
// pixel i (128 where both are missing).
func refPredict2D(recon []byte, i, width int) int {
	left, above := -1, -1
	if i%width != 0 {
		left = int(recon[i-1])
	}
	if i >= width {
		above = int(recon[i-width])
	}
	switch {
	case left >= 0 && above >= 0:
		return (left + above + 1) / 2
	case left >= 0:
		return left
	case above >= 0:
		return above
	default:
		return 128
	}
}

// refPredictMED is the median edge detector as LOCO-I states it, over
// the reconstructed left (a), above (b) and above-left (c) neighbours of
// pixel i: min(a,b) if c >= max(a,b), max(a,b) if c <= min(a,b), and
// a+b-c otherwise. Where a neighbour is missing it predicts as
// refPredict2D does: the one there is, or 128.
func refPredictMED(recon []byte, i, width int) int {
	if i < width || i%width == 0 {
		return refPredict2D(recon, i, width)
	}
	a, b, c := int(recon[i-1]), int(recon[i-width]), int(recon[i-width-1])
	switch {
	case c >= max(a, b):
		return min(a, b)
	case c <= min(a, b):
		return max(a, b)
	}
	return a + b - c
}

// refBiasPlane reconstructs a "VA", "VV" or "VY" plane or a "VB" chroma plane
// from its residuals res at quantizer q. Row 0 is reconstructed as a
// "VN" plane's is. Each row below it is predicted by refPredictMED from a copy of the row above
// in which every pixel is moved by the correction C[Q] of its context
// Q, the pair of quantized gradients to its right and to its left in
// that row; and each nonzero residual updates its context's B, C and N
// as JPEG-LS (ITU-T T.87, A.6.1 and A.6.2) states it, lossless (NEAR =
// 0), with C in [-128, 127] and RESET at 63.
func refBiasPlane(pix []byte, res []int32, w, q int) {
	type state struct{ B, C, N int }
	contexts := map[[2]int]*state{}
	at := func(Q [2]int) *state {
		if contexts[Q] == nil {
			contexts[Q] = &state{N: 1}
		}
		return contexts[Q]
	}
	// quantize is T.87's gradient quantization with its default
	// thresholds T1 = 3, T2 = 7, T3 = 21 for 8-bit samples.
	quantize := func(D int) int {
		switch {
		case D <= -21:
			return -4
		case D <= -7:
			return -3
		case D <= -3:
			return -2
		case D < 0:
			return -1
		case D == 0:
			return 0
		case D < 3:
			return 1
		case D < 7:
			return 2
		case D < 21:
			return 3
		}
		return 4
	}
	for i := 0; i < w && i < len(pix); i++ {
		pix[i] = byte(reconStep(refPredictMED(pix, i, w), int(res[i]), q))
	}
	for y := 1; y*w < len(pix); y++ {
		above := pix[(y-1)*w : y*w]
		// two holds the corrected row above, then the row being
		// reconstructed, so that refPredictMED finds both.
		two := make([]byte, 2*w)
		Q := make([][2]int, w)
		for x := range above {
			var right, left int // a missing neighbour's gradient is 0
			if x+1 < w {
				right = int(above[x+1]) - int(above[x])
			}
			if x > 0 {
				left = int(above[x]) - int(above[x-1])
			}
			Q[x] = [2]int{quantize(right), quantize(left)}
			two[x] = clamp8(int(above[x]) + at(Q[x]).C)
		}
		for x := 0; x < w; x++ {
			Px := refPredictMED(two, w+x, w)
			Rx := reconStep(Px, int(res[y*w+x]), q)
			two[w+x], pix[y*w+x] = byte(Rx), byte(Rx)
			if res[y*w+x] == 0 {
				continue
			}
			st := at(Q[x])
			st.B += Rx - Px
			if st.N == 63 {
				if st.B >= 0 {
					st.B = st.B >> 1
				} else {
					st.B = -((1 - st.B) >> 1)
				}
				st.N = st.N >> 1
			}
			st.N++
			if st.B <= -st.N {
				st.B += st.N
				if st.C > -128 {
					st.C--
				}
				if st.B <= -st.N {
					st.B = -st.N + 1
				}
			} else if st.B > 0 {
				st.B -= st.N
				if st.C < 127 {
					st.C++
				}
				if st.B > 0 {
					st.B = 0
				}
			}
		}
	}
}

// vjpgFrame builds a vjpg bitstream by hand: a header with the given
// magic and a body.
func vjpgFrame(magic string, q, w, h int, body ...byte) []byte {
	out := append([]byte(magic), byte(q))
	out = binary.BigEndian.AppendUint16(out, uint16(w))
	out = binary.BigEndian.AppendUint16(out, uint16(h))
	return append(out, body...)
}

// planesFrame encodes planes, the Y, U and V planes of a w×h frame, as
// a vjpg frame in layer l at quantizer q: the frames encodeLayer writes,
// but from planes no RGB frame converts to.
func planesFrame(t testing.TB, l layer, q, w, h int, planes [3][]byte) []byte {
	var ps [3]plane
	for pi, pix := range planes {
		ps[pi] = plane{pix: pix, w: w}
		if pi > 0 {
			ps[pi].w = (w + 1) / 2
		}
	}
	if l == layerVert {
		return recode(t, appendPlanes(vjpgFrame(vjpgMagics[layerLuma], q, w, h), ps, q, layerLuma), layerVert)
	}
	return appendPlanes(vjpgFrame(vjpgMagics[l], q, w, h), ps, q, l)
}

// swingPlane is a w×h plane whose even rows run 0, 255, 0, … and odd
// rows 255, 0, 255, …: as a bias-corrected plane every pixel of it is a literal whose
// error keeps the sign the steps above it give its context, so two of
// its contexts' corrections run to their clamps.
func swingPlane(w, h int) []byte {
	pix := make([]byte, w*h)
	for i := range pix {
		if (i%w+i/w)%2 == 1 {
			pix[i] = 255
		}
	}
	return pix
}

// decodeAllocBytes reports the bytes VJPGDecode(data) allocates: the
// least of up to three runs, retried while over bound, so that a
// background goroutine's allocation in one of them does not count.
func decodeAllocBytes(data []byte, bound uint64) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for try := 0; try < 3 && least > bound; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		VJPGDecode(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzVJPGDecode holds the one-pass decoder to the reference on
// arbitrary bytes: it must never panic, must accept exactly what the
// reference accepts, must return the same YUV and RGB pixels when it
// does, must not let a reused scratch buffer leak one frame into the
// next, and must allocate no more than the frame it claims.
func FuzzVJPGDecode(f *testing.F) {
	// Every layer's frames: "VA" as written now, "VV", "VY", "VB" and
	// "VN" as written before it, and the same frames mean-predicted in
	// the three layers earlier builds wrote.
	layers := func(fr *frame.Frame, q int) [][]byte {
		var out [][]byte
		for _, l := range []layer{layerArith, layerVert, layerLuma, layerBias, layerMED, layerRice} {
			out = append(out, encodeLayer(f, fr, q, l))
		}
		mean := out[len(out)-1]
		return append(out, recode(f, mean, layerRice1), recode(f, mean, layerVarint))
	}
	for i, q := range []int{1, 4, 12, 20, 128} {
		for _, d := range layers(frame.Generator{W: 17, H: 9, Seed: int64(i)}.Frame(i), q) {
			f.Add(d)
			f.Add(d[:len(d)/2])
			f.Add(d[:len(d)-1])
		}
	}
	for _, d := range layers(frame.Flat(1, 1, 9, 200, 31), 4) {
		f.Add(d)
	}
	// Varint frames: a zero run of length 0, a run past the plane's
	// end, runs that span rows, a residual past 32 bits, and a run of
	// 2^63.
	varint, rice1, rice := vjpgMagics[layerVarint], vjpgMagics[layerRice1], vjpgMagics[layerRice]
	f.Add(vjpgFrame(varint, 12, 2, 2, 0, 0))
	f.Add(vjpgFrame(varint, 12, 2, 2, 0, 5))
	f.Add(vjpgFrame(varint, 12, 3, 2, 0, 6, 0, 4, 0, 4))
	f.Add(vjpgFrame(varint, 1, 3, 1, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 0, 2, 0, 2))
	f.Add(vjpgFrame(varint, 12, 2, 2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	// layerRice1 frames: a unary part past the cap, a parameter byte
	// out of range, a code cut mid-token, a zero run past the plane's
	// end, an escaped literal, and runs that span rows (each plane a
	// parameter byte and its codes).
	// Each is followed by whole chroma planes, so that only the flaw
	// can refuse the frame.
	ones := func(n int) string { return strings.Repeat("1", n) }
	chroma1 := slices.Concat([]byte{0x00}, bitBytes("0 0"), []byte{0x00}, bitBytes("0 0"))   // 1 px each
	chroma2 := slices.Concat([]byte{0x00}, bitBytes("0 10"), []byte{0x00}, bitBytes("0 10")) // 2 px each
	pastCap := bitBytes(ones(riceCap+1) + strings.Repeat("0", riceEscapeBits-1) + "1")
	f.Add(vjpgFrame(rice1, 12, 1, 1, slices.Concat([]byte{0x00}, pastCap, chroma1)...))
	f.Add(vjpgFrame(rice1, 12, 1, 1, slices.Concat([]byte{0xf0}, bitBytes("0 000000000000001"), chroma1)...))
	f.Add(vjpgFrame(rice1, 12, 1, 1, slices.Concat([]byte{0x80}, bitBytes("1111 1111"))...))
	f.Add(vjpgFrame(rice1, 12, 2, 2, slices.Concat([]byte{0x00}, bitBytes("0 11110"), chroma2)...))
	esc := bitBytes(ones(riceCap) + "0" + ones(riceEscapeBits))
	f.Add(vjpgFrame(rice1, 1, 1, 1, slices.Concat([]byte{0x00}, esc, chroma1)...))
	f.Add(vjpgFrame(rice1, 12, 3, 2, slices.Concat([]byte{0x00}, bitBytes("0 11110"), []byte{0x01}, bitBytes("0 111"), []byte{0x00}, bitBytes("0 1110"))...))
	// Frames written now (two parameter bytes a plane): an after-run
	// literal of code 0, the value 1; a run that ends the plane, after
	// which no literal is read; a run that ends a row, its literal the
	// next row's first pixel; a nonzero spare nibble; a stream cut
	// inside an after-run literal; and an escaped after-run literal
	// past 32 bits.
	chroma1 = slices.Concat([]byte{0x00, 0x00}, bitBytes("0 0"), []byte{0x00, 0x00}, bitBytes("0 0")) // 1 px each
	chroma2 = slices.Concat([]byte{0x00, 0x00}, bitBytes("0 10"), []byte{0x00, 0x00}, bitBytes("0 10"))
	f.Add(vjpgFrame(rice, 12, 2, 1, slices.Concat([]byte{0x00, 0x00}, bitBytes("0 0 0"), chroma1)...))
	f.Add(vjpgFrame(rice, 12, 2, 2, slices.Concat([]byte{0x00, 0x00}, bitBytes("0 1110"), chroma2)...))
	f.Add(vjpgFrame(rice, 12, 2, 2, slices.Concat([]byte{0x00, 0x00}, bitBytes("0 10 110 0 0"), chroma2)...))
	f.Add(vjpgFrame(rice, 12, 1, 1, slices.Concat([]byte{0x00, 0x01}, bitBytes("0 0"), chroma1)...))
	f.Add(vjpgFrame(rice, 12, 2, 1, slices.Concat([]byte{0x08, 0x00}, bitBytes("0 0 0 11111"))...))
	f.Add(vjpgFrame(rice, 1, 2, 1, slices.Concat([]byte{0x00, 0x00}, bitBytes("0 0 "+ones(riceCap)+"0 "+ones(riceEscapeBits)), chroma1)...))
	// "VN" frames, whose zero runs take the median edge detector's run
	// path: a run that starts at column 0 below the first row, where
	// every pixel is the one above; a run that starts mid-row, where
	// the pixels follow their height over the row above until it is 0,
	// and crosses into the next row; and a run past the plane's end.
	med := vjpgMagics[layerMED]
	chroma6 := slices.Concat([]byte{0x00, 0x00}, bitBytes("0 111110"), []byte{0x00, 0x00}, bitBytes("0 111110")) // 2×3 px each
	f.Add(vjpgFrame(med, 12, 2, 2, slices.Concat([]byte{0x00, 0x00}, bitBytes("110 110 0 10"), chroma2)...))
	f.Add(vjpgFrame(med, 12, 3, 3, slices.Concat([]byte{0x00, 0x00}, bitBytes("110 10 11110 110 0 11110"), chroma6)...))
	f.Add(vjpgFrame(med, 12, 2, 2, slices.Concat([]byte{0x00, 0x00}, bitBytes("0 11110"), chroma2)...))
	// "VB" frames, whose chroma rows are predicted from a corrected row
	// above: chroma swinging between 0 and 255, whose literals drive
	// two corrections to their clamps (TestBiasCorrectionClamps); a
	// zero run that crosses into a row whose correction the literal
	// before it changed, 128s then 152 then 152s over 153s at chroma
	// quantizer 24; and planes of width 1, where both of a pixel's
	// neighbours in the row above are missing. Then the same for "VY"
	// frames, whose luma rows are predicted so too: luma swinging at
	// quantizer 128, which drives the luma plane's two contexts to
	// their clamps, and the steps in every plane, the luma's at
	// quantizer 12.
	swing := swingPlane(2, 260)
	f.Add(planesFrame(f, layerBias, 64, 4, 260, [3][]byte{make([]byte, 4*260), swing, swing}))
	f.Add(planesFrame(f, layerLuma, 128, 4, 260, [3][]byte{swingPlane(4, 260), swing, swing}))
	steps := []byte{128, 128, 128, 152, 152, 152, 153, 153, 153}
	f.Add(planesFrame(f, layerBias, 12, 6, 3, [3][]byte{bytes.Repeat([]byte{128}, 18), steps, steps}))
	f.Add(planesFrame(f, layerLuma, 12, 3, 3, [3][]byte{steps, steps[:6], steps[:6]}))
	f.Add(planesFrame(f, layerVert, 128, 4, 260, [3][]byte{swingPlane(4, 260), swing, swing}))
	f.Add(planesFrame(f, layerVert, 12, 3, 3, [3][]byte{steps, steps[:6], steps[:6]}))
	f.Add(planesFrame(f, layerArith, 128, 4, 260, [3][]byte{swingPlane(4, 260), swing, swing}))
	f.Add(planesFrame(f, layerArith, 12, 3, 3, [3][]byte{steps, steps[:6], steps[:6]}))
	for _, c := range vertHandFrames() {
		f.Add(c.data)
	}
	// "VA" frames coded by hand: an offset past its stretch, a
	// magnitude past the escape and at its edge, frames cut short or
	// claiming more rows than their body holds, and a first code word
	// no encoder writes.
	for _, c := range arithHandFrames() {
		f.Add(c.data)
	}
	// Frames 1 and 2 pixels wide, as written now and before luma bias
	// correction.
	for _, l := range []layer{layerArith, layerVert, layerLuma, layerBias} {
		for _, w := range []int{1, 2} {
			for _, q := range []int{1, 12} {
				f.Add(encodeLayer(f, frame.Generator{W: w, H: 24, Seed: 9}.Frame(2), q, l))
			}
		}
	}
	var dec VJPGDecoder
	f.Fuzz(func(t *testing.T, data []byte) {
		if w, h, err := VJPGDims(data); err == nil && w*h > 256*256 {
			t.Skip("larger than the reference is asked to decode")
		}
		wantYUV, wantRGB, wantErr := refVJPGDecode(data)
		rgb, err := dec.Decode(data)
		yuv, yuvErr := VJPGDecodeYUV(data)
		if (err == nil) != (wantErr == nil) || (yuvErr == nil) != (wantErr == nil) {
			t.Fatalf("Decode: %v, DecodeYUV: %v, reference: %v", err, yuvErr, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(yuvErr, ErrCorrupt) {
				t.Fatalf("refused with %v / %v, want ErrCorrupt", err, yuvErr)
			}
			return
		}
		if rgb.Width != wantRGB.Width || rgb.Height != wantRGB.Height || rgb.Model != media.ColorRGB || !bytes.Equal(rgb.Pix, wantRGB.Pix) {
			t.Fatalf("RGB frame differs from the reference")
		}
		if !bytes.Equal(yuv.Pix, wantYUV.Pix) {
			t.Fatalf("YUV frame differs from the reference")
		}
		bound := 4<<10 + 8*uint64(rgb.Width*rgb.Height)
		if n := decodeAllocBytes(data, bound); n > bound {
			t.Fatalf("decoding a %dx%d frame allocated %d bytes", rgb.Width, rgb.Height, n)
		}
	})
}

// vertHandFrames are "VV" frames whose luma plane is in vertical mode
// (parameter bytes 00 01 00, every parameter 0), over chroma planes
// coded as a "VY" frame's, each with the luma residuals it decodes to,
// or nil if it must be refused: a run with no reference, at the plane's
// start; a run whose reference is in its own row, the literal of 1
// before it, which ends one short of the position below that literal,
// the literal after it coded against the reference (a difference of 0,
// so 1 again), then a run that has a reference, the literal just read,
// and is read by its length; runs whose end against the reference
// would fall past the plane's end or at its start; and a plane cut at
// its first flag bit, read as padding, which then runs past the
// plane's codes.
func vertHandFrames() []struct {
	name string
	data []byte
	want []int32
} {
	vert := vjpgMagics[layerVert]
	chroma2 := slices.Concat([]byte{0x00, 0x00}, bitBytes("0 10"), []byte{0x00, 0x00}, bitBytes("0 10"))     // 1×2 px each
	chroma4 := slices.Concat([]byte{0x00, 0x00}, bitBytes("0 1110"), []byte{0x00, 0x00}, bitBytes("0 1110")) // 2×2 px each
	head := []byte{0x00, 0x01, 0x00}
	return []struct {
		name string
		data []byte
		want []int32
	}{
		{"no reference", vjpgFrame(vert, 12, 2, 2, slices.Concat(head, bitBytes("0 1110"), chroma2)...), []int32{0, 0, 0, 0}},
		{"reference in the run's row", vjpgFrame(vert, 12, 3, 2, slices.Concat(head, bitBytes("110 0 1 0 0 0 0 110"), chroma4)...), []int32{1, 0, 1, 0, 0, 0}},
		{"end past the plane", vjpgFrame(vert, 12, 2, 2, slices.Concat(head, bitBytes("110 0 1 11111110"), chroma2)...), nil},
		{"end at the run's start", vjpgFrame(vert, 12, 2, 2, slices.Concat(head, bitBytes("110 0 1 0"), chroma2)...), nil},
		{"cut at a flag bit", vjpgFrame(vert, 12, 2, 2, slices.Concat(head, bitBytes("110 0"))...), nil},
	}
}

// TestVerticalRunsByHand: the decoder and the reference read each of
// vertHandFrames as it says, residuals or refusal.
func TestVerticalRunsByHand(t *testing.T) {
	for _, c := range vertHandFrames() {
		segs, refErr := refSegments(c.data)
		_, err := VJPGDecode(c.data)
		if c.want == nil {
			if !errors.Is(err, ErrCorrupt) || refErr == nil {
				t.Errorf("%s: %v, the reference %v; want both refused", c.name, err, refErr)
			}
			continue
		}
		if err != nil || refErr != nil || !slices.Equal(segs[0], c.want) {
			t.Errorf("%s: %v, the reference %v, luma residuals %v; want %v", c.name, err, refErr, segs, c.want)
		}
	}
}

// FuzzLayerDecode holds the enhancement-layer and vmpg-intermediate
// decoders to the reference readers on arbitrary bytes, under the
// headers of either entropy layer: they must never panic, must refuse
// only with ErrCorrupt, must accept exactly what has a sound header and
// segments the reference reads (refSegments), and must then return the
// same pixels as the same tokens recoded in the other layer.
func FuzzLayerDecode(f *testing.F) {
	const w, h = 33, 17
	frames := genFrames(3, w, h, 8)
	base, enh, err := VJPGEncodeLayered(frames[1], 8)
	if err != nil {
		f.Fatal(err)
	}
	packets, err := VMPGEncode(frames, 8, 2) // keys 0 and 2, then 1
	if err != nil {
		f.Fatal(err)
	}
	recA, errA := VJPGDecodeYUV(packets[0].Data)
	recB, errB := VJPGDecodeYUV(packets[1].Data)
	if errA != nil || errB != nil || packets[2].Key {
		f.Fatal(errA, errB)
	}
	inter := packets[2].Data
	for _, d := range [][]byte{enh, inter} {
		for _, d := range [][]byte{d, recode(f, d, layerRice1), recode(f, d, layerVarint)} {
			f.Add(d)
			f.Add(d[:len(d)-1])
			f.Add(d[:len(d)/2])
		}
	}
	// Rice segments behind each header: a parameter byte out of range,
	// a unary part past the cap, a code cut mid-token, a zero run past
	// the end — in layerRice1, then in the layer written now with an
	// after-run literal of code 0, a nonzero spare nibble, a stream cut
	// inside an after-run literal and a run that ends the segment.
	ones := strings.Repeat("1", riceCap)
	for l, segs := range map[layer][][]byte{
		layerRice1: {
			{0xf0, 0x00},
			append([]byte{0x00}, bitBytes(ones+"1")...),
			{0x80, 0xff},
			append([]byte{0x00}, bitBytes("0 "+ones+"0 0000 0000 0000 0000 0000 0000 0000 1111")...),
		},
		layerRice: {
			{0xf0, 0x00, 0x00},
			append([]byte{0x00, 0x00}, bitBytes(ones+"1")...),
			append([]byte{0x00, 0x00}, bitBytes("0 0 0 0 0 0 0 0")...),
			append([]byte{0x00, 0x01}, bitBytes("0 0 0")...),
			append([]byte{0x08, 0x00}, bitBytes("0 0 0 11111")...),
			append([]byte{0x00, 0x00}, bitBytes("0 "+ones+"0 0000 0000 0000 0000 0000 0000 0000 1111")...),
		},
	} {
		for _, seg := range segs {
			f.Add(append(append([]byte(enhMagics[l]), enh[2:7]...), seg...))
			f.Add(append(append([]byte(interMagics[l]), inter[2:7]...), seg...))
		}
	}
	// A quantizer past 128, which no encoder writes.
	for _, q := range []byte{129, 255} {
		f.Add(append(append(slices.Clone(enh[:2]), q), enh[3:]...))
		f.Add(append(append(slices.Clone(inter[:2]), q), inter[3:]...))
	}
	// Every block's motion code out of range, in every layer: sound
	// segments the decoder must refuse all the same.
	for _, code := range []int32{5000, -1, 2*mvCount + 1} {
		bad := withMotion(f, inter, code)
		f.Add(bad)
		f.Add(recode(f, bad, layerRice1))
		f.Add(recode(f, bad, layerVarint))
	}
	dims := func(data []byte) (int, int) {
		return int(binary.BigEndian.Uint16(data[3:])), int(binary.BigEndian.Uint16(data[5:]))
	}
	bw, bh := dims(base)
	check := func(t *testing.T, what string, data []byte, sound bool, decode func([]byte) (*frame.Frame, error)) {
		got, err := decode(data)
		var segErr error
		if sound {
			_, segErr = refSegments(data)
		}
		if (err == nil) != (sound && segErr == nil) {
			t.Fatalf("%s: %v, header sound %v, reference %v", what, err, sound, segErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: refused with %v, want ErrCorrupt", what, err)
			}
			return
		}
		for l := range layerVarint + 1 {
			other, err := decode(recode(t, data, l))
			if err != nil || !bytes.Equal(got.Pix, other.Pix) {
				t.Fatalf("%s: recoded in layer %d: %v, or the pixels differ", what, l, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			check(t, "enhancement", data, false, func(d []byte) (*frame.Frame, error) { return VJPGDecodeLayered(base, d) })
			check(t, "intermediate", data, false, func(d []byte) (*frame.Frame, error) { return decodeIntermediate(d, recA, recB, 1, 2) })
			return
		}
		fw, fh := dims(data)
		_, isEnh := layerOf(data, enhMagics)
		_, isInter := layerOf(data, interMagics)
		q := data[2]
		check(t, "enhancement", data, isEnh && q >= 1 && q <= 128 && (fw+1)/2 == bw && (fh+1)/2 == bh,
			func(d []byte) (*frame.Frame, error) { return VJPGDecodeLayered(base, d) })
		check(t, "intermediate", data, isInter && q >= 1 && q <= 128 && fw == w && fh == h &&
			motionInRange(data),
			func(d []byte) (*frame.Frame, error) { return decodeIntermediate(d, recA, recB, 1, 2) })
	})
}

// withMotion returns the vmpg intermediate data with every block's
// motion code set to code, in the same entropy layer.
func withMotion(t testing.TB, data []byte, code int32) []byte {
	t.Helper()
	segs, err := refSegments(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range segs[0] {
		segs[0][i] = code
	}
	_, l, _ := kindOf(data)
	out := slices.Clone(data[:7])
	for _, vals := range segs {
		out = encodeSegment(out, vals, l)
	}
	return out
}

// motionInRange reports whether the motion codes of an intermediate
// whose segments the reference reads are all codes mvCode writes, 0
// (interpolate) to 2·mvCount; data the reference refuses passes, its
// refusal being the oracle's other half.
func motionInRange(data []byte) bool {
	segs, err := refSegments(data)
	if err != nil {
		return true
	}
	return !slices.ContainsFunc(segs[0], func(c int32) bool { return c < 0 || c > 2*mvCount })
}

// TestIntermediateRefusesMotionOutOfRange: a motion code below 0 or
// above 2·mvCount names no vector, so an intermediate that holds one is
// ErrCorrupt in every entropy layer, never a frame decoded through a
// wrapped vector; the highest code, key B's last vector, decodes.
func TestIntermediateRefusesMotionOutOfRange(t *testing.T) {
	frames := genFrames(3, 33, 17, 8)
	packets, err := VMPGEncode(frames, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	recA, errA := VJPGDecodeYUV(packets[0].Data)
	recB, errB := VJPGDecodeYUV(packets[1].Data)
	if errA != nil || errB != nil || packets[2].Key {
		t.Fatal(errA, errB)
	}
	inter := packets[2].Data
	for _, data := range [][]byte{inter, recode(t, inter, layerRice1), recode(t, inter, layerVarint)} {
		layer := string(data[:2])
		for _, code := range []int32{5000, -1, 2*mvCount + 1, math.MinInt32, math.MaxInt32} {
			if _, err := decodeIntermediate(withMotion(t, data, code), recA, recB, 1, 2); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s with every motion code %d: %v, want ErrCorrupt", layer, code, err)
			}
		}
		for _, code := range []int32{0, 1, mvCount, 2 * mvCount} {
			if _, err := decodeIntermediate(withMotion(t, data, code), recA, recB, 1, 2); err != nil {
				t.Errorf("%s with every motion code %d: %v", layer, code, err)
			}
		}
	}
}

// TestZeroRunsArePredictions: the run paths, predictRun's four-pixel
// blocks and medRun's height over the row above, reconstruct a run of
// zero residuals exactly as predicting each pixel in turn does, for
// runs of any length starting at any column, over rows above that are
// flat, smooth or noisy.
func TestZeroRunsArePredictions(t *testing.T) {
	if err := quick.Check(func(seed int64, w8, x8, n8 uint8, left uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := int(w8%64) + 1
		x := int(x8) % w
		n := int(n8)%(w-x) + 1
		amp := []int{0, 3, 40, 256}[rng.Intn(4)]
		above := make([]byte, w)
		for i := range above {
			above[i] = clamp8(100 + i + rng.Intn(amp+1) - amp/2)
		}
		if x == 0 {
			left = above[0] // what rowStart gives
		}
		for _, l := range []layer{layerRice, layerMED} {
			got := make([]byte, n)
			last := zeroResiduals(got, above, x, int(left), l)
			want, p := make([]byte, n), int(left)
			for i := range want {
				p = predict(p, above, x+i, l)
				want[i] = byte(p)
			}
			if !bytes.Equal(got, want) || last != p {
				t.Logf("layer %d, a run of %d from column %d of %v after %d: %v, %d; want %v, %d", l, n, x, above, left, got, last, want, p)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBiasCorrectionClamps: chroma swinging between 0 and 255 row after
// row, at chroma quantizer 128, drives the correction of the context
// over a rising step to 127 and of the one over a falling step to
// -128, and under the clamped corrections every pixel still decodes
// within the quantizer's bound, q-1-q/3 (see roundDiv); and so does
// luma, as a "VY" frame codes it.
func TestBiasCorrectionClamps(t *testing.T) {
	const w, h = 4, 260
	swing := swingPlane(w/2, h)
	data := planesFrame(t, layerBias, 64, w, h, [3][]byte{make([]byte, w*h), swing, swing})
	var dec VJPGDecoder
	if _, err := dec.Decode(data); err != nil {
		t.Fatal(err)
	}
	yuv, err := VJPGDecodeYUV(data)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 128 - 1 - 128/3 // at chroma quantizer 128
	for i, v := range yuv.Pix[w*h:] {
		if d := int(v) - int(swing[i%len(swing)]); d > bound || d < -bound {
			t.Fatalf("chroma pixel %d of %d decodes to %d, %d off", i, 2*len(swing), v, d)
		}
	}
	// After the V plane: the first column's context over a rising step
	// (right level 8, left 4) and over a falling one (right 0, left 4).
	if rise, fall := dec.bias.corr[8*9+4], dec.bias.corr[0*9+4]; rise != biasMaxC || fall != biasMinC {
		t.Errorf("corrections %d over the rising step and %d over the falling one, want %d and %d", rise, fall, biasMaxC, biasMinC)
	}
	// A "VY" frame's luma plane is corrected too: luma swinging so at
	// quantizer 128 drives the same two contexts to their clamps, and
	// still decodes within the bound.
	luma := swingPlane(w, h)
	var enc, dbias biasState
	pl, eb := planeLayer(layerLuma, 0, &enc)
	_, db := planeLayer(layerLuma, 0, &dbias)
	rec := make([]byte, len(luma))
	if _, err := decodePlane(encodePlane(nil, luma, w, 128, pl, eb), rec, w, 128, pl, db, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range rec {
		if d := int(v) - int(luma[i]); d > bound || d < -bound {
			t.Fatalf("luma pixel %d decodes to %d, %d off", i, v, d)
		}
	}
	if rise, fall := dbias.corr[8*9+4], dbias.corr[0*9+4]; rise != biasMaxC || fall != biasMinC {
		t.Errorf("luma corrections %d over the rising step and %d over the falling one, want %d and %d", rise, fall, biasMaxC, biasMinC)
	}
}

// TestCorrectExact: correct, whose blocks of sixteen pixels the vector
// kernel corrects where there is one, moves every pixel of a row by its
// context's correction exactly as a pixel-by-pixel reading of
// biasState's rule does (context, then clamp), for rows of every width
// up to 80 and a few wider, flat, smooth or swinging, under corrections
// anywhere in [biasMinC, biasMaxC].
func TestCorrectExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s biasState
	for trial := 0; trial < 3000; trial++ {
		w := trial%80 + 1
		if trial%10 == 0 {
			w = 160 + rng.Intn(200)
		}
		above := make([]byte, w)
		amp := []int{0, 4, 30, 256}[rng.Intn(4)]
		for i := range above {
			above[i] = clamp8(128 + rng.Intn(2*amp+1) - amp)
			if amp == 256 {
				above[i] = byte(rng.Intn(2) * 255)
			}
		}
		for c := range s.corr[:biasContexts] {
			s.corr[c] = int8(rng.Intn(biasMaxC-biasMinC+1) + biasMinC)
			if trial%3 == 0 {
				s.corr[c] = int8(rng.Intn(9) - 4)
			}
		}
		got := bytes.Clone(s.correct(above))
		for x := range above {
			if want := clamp8(int(above[x]) + int(s.corr[s.context(x)])); got[x] != want {
				t.Fatalf("width %d, pixel %d of %v: %d, want %d", w, x, above, got[x], want)
			}
		}
	}
}

// TestVJPGDecodeCost pins what one 160×120 frame costs a decoder whose
// scratch is warm: the frame header and its pixels, nothing else.
func TestVJPGDecodeCost(t *testing.T) {
	data, err := VJPGEncode(frame.Generator{W: 160, H: 120, Seed: 1}.Frame(0), 12)
	if err != nil {
		t.Fatal(err)
	}
	var dec VJPGDecoder
	if _, err := dec.Decode(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dec.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Decode with a warm scratch: %.1f allocs per frame, want <= 2", allocs)
	}
}

// TestVJPGDecoderScratchIsNotShared checks that frames decoded through
// one decoder own their pixels: decoding the next frame, of another
// size, leaves the first untouched.
func TestVJPGDecoderScratchIsNotShared(t *testing.T) {
	var dec VJPGDecoder
	a, _ := VJPGEncode(frame.Generator{W: 33, H: 17, Seed: 5}.Frame(0), 4)
	b, _ := VJPGEncode(frame.Generator{W: 8, H: 40, Seed: 6}.Frame(0), 4)
	fa, err := dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	keep := bytes.Clone(fa.Pix)
	fb, err := dec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Pix, keep) {
		t.Error("decoding a second frame changed the first")
	}
	if fb.Width != 8 || fb.Height != 40 {
		t.Errorf("second frame is %dx%d", fb.Width, fb.Height)
	}
}

// TestVJPGLayeredRefusesMismatchedLayers: an enhancement layer must be
// the size its base was halved from, so that its header cannot size the
// upsampled frame on its own word.
func TestVJPGLayeredRefusesMismatchedLayers(t *testing.T) {
	base, enh, err := VJPGEncodeLayered(frame.Generator{W: 33, H: 17, Seed: 1}.Frame(0), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range [][2]uint16{{4096, 4096}, {31, 17}, {33, 15}} {
		bad := bytes.Clone(enh)
		binary.BigEndian.PutUint16(bad[3:], size[0])
		binary.BigEndian.PutUint16(bad[5:], size[1])
		if _, err := VJPGDecodeLayered(base, bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%dx%d enhancement over a 17x9 base: %v, want ErrCorrupt", size[0], size[1], err)
		}
	}
}

// BenchmarkVJPGDecode decodes one frame of the benchmark's clip size and
// quality through a warm decoder.
func BenchmarkVJPGDecode(b *testing.B) {
	data, err := VJPGEncode(frame.Generator{W: 160, H: 120, Seed: 1}.Frame(0), QuantizerFor(media.QualityVHS))
	if err != nil {
		b.Fatal(err)
	}
	var dec VJPGDecoder
	b.ReportAllocs()
	b.SetBytes(160 * 120 * 3) // the decoded RGB frame, as in BenchmarkVJPGEncode
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVJPGDecodeClips decodes the frames the play benchmark's
// clips hold (bench/seed: four bodies of 50 frames, generator seeds 41,
// 97, 153 and 209 at 160×120, VHS quality) in turn through one warm
// decoder; an op is one frame.
func BenchmarkVJPGDecodeClips(b *testing.B) {
	var frames [][]byte
	for c := 0; c < 4; c++ {
		g := frame.Generator{W: 160, H: 120, Seed: int64(41 + 56*c)}
		for i := 0; i < 50; i++ {
			data, err := VJPGEncode(g.Frame(i), QuantizerFor(media.QualityVHS))
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, data)
		}
	}
	var dec VJPGDecoder
	b.ReportAllocs()
	b.SetBytes(160 * 120 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVJPGEncode encodes one frame of the benchmark's clip size and
// quality.
func BenchmarkVJPGEncode(b *testing.B) {
	f := frame.Generator{W: 160, H: 120, Seed: 1}.Frame(0)
	q := QuantizerFor(media.QualityVHS)
	b.ReportAllocs()
	b.SetBytes(int64(len(f.Pix)))
	for i := 0; i < b.N; i++ {
		if _, err := VJPGEncode(f, q); err != nil {
			b.Fatal(err)
		}
	}
}
