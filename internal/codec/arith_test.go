package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// refRange is the reference range decoder: LZMA's, written the plain
// way, with a renormalization loop and each model a probability and a
// count in a map, found by its context's name.
type refRange struct {
	src       []byte
	pos       int // bytes read, past the end of src too
	rng, code uint32
	models    map[string]*[2]int // p, and the bits seen
}

func (r *refRange) next() uint32 {
	r.pos++
	if r.pos-1 < len(r.src) {
		return uint32(r.src[r.pos-1])
	}
	return 0
}

func (r *refRange) normalize() {
	for r.rng < 1<<24 {
		r.rng <<= 8
		r.code = r.code<<8 | r.next()
	}
}

// bit decodes a bit under the model named by ctx, and moves the model's
// p a shift of its distance toward 2048 after a 0 and 15 after a 1,
// rounded down: the shift 1 for its first bit, then 2, 2, ten 3s and 4
// from then on.
func (r *refRange) bit(ctx ...any) int {
	key := fmt.Sprint(ctx...)
	m := r.models[key]
	if m == nil {
		m = &[2]int{1024, 0}
		r.models[key] = m
	}
	bound := (r.rng >> 11) * uint32(m[0])
	b, target := 0, 2048
	if r.code < bound {
		r.rng = bound
	} else {
		r.code -= bound
		r.rng -= bound
		b, target = 1, 15
	}
	shift := 4
	switch {
	case m[1] == 0:
		shift = 1
	case m[1] < 3:
		shift = 2
	case m[1] < 13:
		shift = 3
	}
	d := target - m[0]
	if d < 0 {
		d = -((-d + 1<<shift - 1) >> shift) // rounded down
	} else {
		d >>= shift
	}
	m[0] += d
	m[1]++
	r.normalize()
	return b
}

// direct decodes n bits at probability one half, MSB first.
func (r *refRange) direct(n int) int {
	v := 0
	for ; n > 0; n-- {
		r.rng >>= 1
		b := 0
		if r.code >= r.rng {
			r.code -= r.rng
			b = 1
		}
		v = v<<1 | b
		r.normalize()
	}
	return v
}

// magSign decodes a nonzero residual: its magnitude in unary, up to 14
// ones in bins under the class of |w|+|n|+(|nw|+|ne|+1)/2 (0, 1, 2,
// 3–4, 5–8, more), the fourth and later bins sharing a model, then
// after 14 ones 8 direct bits more; then its sign, under the signs of
// n and w.
func (r *refRange) magSign(w, nw, n, ne int32) (int32, bool) {
	abs := func(v int32) int32 { return max(v, -v) }
	s := abs(w) + abs(n) + (abs(nw)+abs(ne)+1)/2
	class := 5
	for i, top := range []int32{0, 1, 2, 4, 8} {
		if s <= top {
			class = i
			break
		}
	}
	mag := int32(1)
	for mag <= 14 && r.bit("mag", class, min(mag-1, 3)) == 1 {
		mag++
	}
	if mag == 15 {
		if mag += int32(r.direct(8)); mag > 255 {
			return 0, false
		}
	}
	sign := func(v int32) int {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	}
	if r.bit("sign", sign(n), sign(w)) == 1 {
		mag = -mag
	}
	return mag, true
}

// plane decodes a plane of n residuals, width wide, its models new.
// Where the left, above and above-right residuals are 0 it reads a run
// flag under the bit length (at most 8) of the stretch to the next
// column whose above or above-right residual is nonzero, and, if the
// flag is 1, the offset of the first nonzero one as an Exp-Golomb code
// — a prefix of at most bits.Len(stretch)-1 ones, each bin its own
// model, then its mantissa direct — and its magnitude and sign as an
// all-zero neighbourhood's. Elsewhere it reads a zero flag under which
// of the left, above-left, above, above-right and above-right+1
// residuals are nonzero and whether |left|+|above| passes 1.
func (r *refRange) plane(n, width int) ([]int32, error) {
	r.models = map[string]*[2]int{}
	out := make([]int32, n)
	at := func(x, y int) int32 {
		if x < 0 || x >= width || y < 0 {
			return 0
		}
		return out[y*width+x]
	}
	for y := 0; y*width < n; y++ {
		for x := 0; x < width; {
			w, nw, nn, ne, nee := at(x-1, y), at(x-1, y-1), at(x, y-1), at(x+1, y-1), at(x+2, y-1)
			if w != 0 || nn != 0 || ne != 0 {
				pattern := []bool{w != 0, nw != 0, nn != 0, ne != 0, nee != 0}
				big := max(w, -w)+max(nn, -nn) > 1
				if r.bit("zero", pattern, big) == 1 {
					v, ok := r.magSign(w, nw, nn, ne)
					if !ok {
						return nil, ErrCorrupt
					}
					out[y*width+x] = v
				}
				x++
				continue
			}
			end := width
			for c := x + 1; y > 0 && c < width; c++ {
				if at(c, y-1) != 0 || at(c+1, y-1) != 0 {
					end = c
					break
				}
			}
			if r.bit("run", min(bits.Len(uint(end-x)), 8)) == 0 {
				x = end
				continue
			}
			o := 0
			if end-x > 1 {
				k := 0
				for k < bits.Len(uint(end-x))-1 && r.bit("off", k) == 1 {
					k++
				}
				if o = 1<<k + r.direct(k) - 1; o >= end-x {
					return nil, ErrCorrupt
				}
			}
			v, ok := r.magSign(0, 0, 0, 0)
			if !ok {
				return nil, ErrCorrupt
			}
			out[y*width+x+o] = v
			x += o + 1
		}
	}
	return out, nil
}

// refArithSegments reads the planes of a "VA" frame's body, of the
// given sizes and widths, with the reference decoder: its first code
// word, which must not be 2^32-1, then each plane, none reading past the
// body.
func refArithSegments(src []byte, sizes, widths []int) ([][]int32, error) {
	if len(src) < 4 {
		return nil, ErrCorrupt
	}
	r := refRange{src: src, rng: 0xffffffff}
	for i := 0; i < 4; i++ {
		r.code = r.code<<8 | r.next()
	}
	if r.code == 0xffffffff {
		return nil, ErrCorrupt
	}
	var segs [][]int32
	for i, n := range sizes {
		vals, err := r.plane(n, widths[i])
		if err != nil {
			return nil, err
		}
		segs = append(segs, vals)
	}
	if r.pos > len(src) {
		return nil, ErrCorrupt
	}
	return segs, nil
}

// arithBody range codes the planes of a frame w×h, luma plane first,
// from residuals — or, for the luma plane, with luma if it is not nil,
// which codes that plane's bits by hand under the plane's models.
func arithBody(w, h int, luma func(e *rangeEncoder, m *arithModels), res ...[]int32) []byte {
	e := newRangeEncoder(nil)
	var m arithModels
	var rows arithRows
	cw := (w + 1) / 2
	for pi, width := range []int{w, cw, cw} {
		switch {
		case pi == 0 && luma != nil:
			m.reset()
			luma(&e, &m)
		case pi < len(res):
			encodeArithPlane(&e, &m, &rows, res[pi], width)
		default:
			encodeArithPlane(&e, &m, &rows, make([]int32, width*h), width)
		}
	}
	return e.flush()
}

// arithHandFrames are "VA" frames whose luma plane's bits are coded by
// hand, each with the luma residuals it decodes to, or nil if it must
// be refused: an offset past its stretch (a 2-pixel row, whose stretch
// offset can only be 0 or 1, coded as 2), a magnitude past the escape
// (14 ones, then 255 more) and one at its edge (240 more: 255, which a
// residual at q = 1 can be); a whole frame, the same cut short by a
// byte, whose coder reads past its end, and the same under a header
// claiming twice its rows; a first code word of 2^32-1; and a body
// shorter than one.
func arithHandFrames() []struct {
	name string
	data []byte
	want []int32
} {
	magic := vjpgMagics[layerArith]
	// A run flag of 1 on a plane's first row, then n ones of the
	// magnitude's unary part under the all-zero context.
	runThenOnes := func(stretch, ones int) func(e *rangeEncoder, m *arithModels) {
		return func(e *rangeEncoder, m *arithModels) {
			e.bit(&m.run[runContext(stretch)], 1)
			for i := 0; i < ones; i++ {
				e.bit(&m.mag[0][min(i, arithMagBins-1)], 1)
			}
		}
	}
	pastStretch := arithBody(2, 1, func(e *rangeEncoder, m *arithModels) {
		e.bit(&m.run[runContext(2)], 1)
		e.bit(&m.off[0], 1)
		e.direct(1, 1) // o+1 = 0b11
		e.magSign(m, 1, 0, 0, 0, 0)
	})
	escape := func(rest uint32) []byte {
		return arithBody(1, 1, func(e *rangeEncoder, m *arithModels) {
			runThenOnes(1, arithUnary)(e, m)
			e.direct(rest, arithEscapeBits)
			e.bit(&m.sign[0], 0)
		})
	}
	whole := arithBody(3, 2, nil, []int32{1, 0, -2, 0, 0, 3})
	return []struct {
		name string
		data []byte
		want []int32
	}{
		{"offset past the stretch", vjpgFrame(magic, 12, 2, 1, pastStretch...), nil},
		{"magnitude past the escape", vjpgFrame(magic, 1, 1, 1, escape(255)...), nil},
		{"magnitude at the escape's edge", vjpgFrame(magic, 1, 1, 1, escape(240)...), []int32{255}},
		{"whole", vjpgFrame(magic, 12, 3, 2, whole...), []int32{1, 0, -2, 0, 0, 3}},
		{"cut by a byte", vjpgFrame(magic, 12, 3, 2, whole[:len(whole)-1]...), nil},
		{"rows past the body", vjpgFrame(magic, 12, 3, 4, whole...), nil},
		{"first code word 2^32-1", vjpgFrame(magic, 12, 1, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), nil},
		{"shorter than a code word", vjpgFrame(magic, 12, 1, 1, 0, 0, 0), nil},
	}
}

// TestArithFramesByHand: the decoder and the reference read each of
// arithHandFrames as it says, residuals or refusal.
func TestArithFramesByHand(t *testing.T) {
	for _, c := range arithHandFrames() {
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

// TestArithTruncatedRefused: a frame cut anywhere short of its end is
// refused, never returned with the pixels the 0s past its end decode to.
func TestArithTruncatedRefused(t *testing.T) {
	data, err := VJPGEncode(frame.Generator{W: 64, H: 48, Seed: 3}.Frame(1), 12)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := VJPGDecode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut to %d of %d bytes: %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestRangeCoderCarries: random bits under adaptive and direct models,
// skewed so that low runs into long strings of 0xff bytes and carries
// into them, round-trip through the range coder; and both a carry and a
// string of pending 0xff bytes happen, so that their handling is what
// the round trip checks, on a 32-bit int too.
func TestRangeCoderCarries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	carries, pendings := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2000)
		skew := []float64{0.5, 0.9, 0.999, 0.001}[trial%4] // the last mostly 1s, the interval's top
		bitsIn := make([]uint32, n)
		ctx := make([]int, n)
		direct := make([]bool, n)
		for i := range bitsIn {
			if rng.Float64() > skew {
				bitsIn[i] = 1
			}
			ctx[i] = rng.Intn(4)
			direct[i] = rng.Intn(16) == 0
		}
		e := newRangeEncoder(nil)
		var em [4]prob
		for i := range em {
			em[i] = newProb
		}
		for i, b := range bitsIn {
			if direct[i] {
				e.direct(b, 1)
			} else {
				e.bit(&em[ctx[i]], b)
			}
			if e.low >= 1<<32 {
				carries++
			}
			if e.pending > 2 {
				pendings++
			}
		}
		src := e.flush()
		d, ok := newRangeDecoder(src)
		if !ok {
			t.Fatalf("trial %d: first code word refused", trial)
		}
		var dm [4]prob
		for i := range dm {
			dm[i] = newProb
		}
		for i, want := range bitsIn {
			var b uint32
			if direct[i] {
				d, b = d.direct(src, 1)
			} else if d, b = d.decide(&dm[ctx[i]]); d.rng < arithTop {
				d = d.refill(src)
			}
			if b != want {
				t.Fatalf("trial %d: bit %d of %d is %d, want %d", trial, i, n, b, want)
			}
		}
		if d.off != len(src) {
			t.Fatalf("trial %d: the decoder read %d of %d bytes", trial, d.off, len(src))
		}
	}
	if carries == 0 || pendings == 0 {
		t.Errorf("%d carries, %d strings of pending 0xff bytes; want both", carries, pendings)
	}
}

// TestArithRateBounds: whatever bits a model sees, its p stays in
// [arithEdge, arithOne-arithEdge], the range adapt's renormalization
// step rests on; and an all-0 or all-1 run reaches each edge.
func TestArithRateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		p := newProb
		for i := 0; i < 200; i++ {
			var b uint32
			switch trial % 3 {
			case 0:
				b = uint32(rng.Intn(2))
			case 1:
				b = uint32(i/50) & 1
			case 2:
				b = 1
				if rng.Intn(20) == 0 {
					b = 0
				}
			}
			p.adapt(b)
			if p.p < arithEdge || p.p > arithOne-arithEdge {
				t.Fatalf("trial %d, bit %d: p = %d", trial, i, p.p)
			}
		}
	}
	for b, edge := range []int16{arithOne - arithEdge, arithEdge} {
		p := newProb
		for i := 0; i < 200; i++ {
			p.adapt(uint32(b))
		}
		if p.p != edge {
			t.Errorf("200 bits of %d: p = %d, want %d", b, p.p, edge)
		}
	}
}

// seedShapes are the benchmark's three clip shapes: each four bodies,
// generator seeds 41+56c, of that many frames at VHS quality.
var seedShapes = []struct{ w, h, frames, vv, va int }{
	{160, 120, 50, 99464, 74528},
	{64, 48, 25, 14016, 12231},
	{32, 24, 8, 1925, 1836},
}

// TestSeedFrameBytes pins the bytes the benchmark's seeded clips take:
// each shape's frames in total as "VV" frames, the generation before,
// and as "VA" frames, written now, which take no more; and every "VA"
// frame decodes to the "VV" frame's exact YUV and RGB.
func TestSeedFrameBytes(t *testing.T) {
	for _, s := range seedShapes {
		var vv, va int
		for c := 0; c < 4; c++ {
			g := frame.Generator{W: s.w, H: s.h, Seed: int64(41 + 56*c)}
			for i := 0; i < s.frames; i++ {
				f := g.Frame(i)
				var pix [2][]byte
				for j, l := range []layer{layerVert, layerArith} {
					data := encodeLayer(t, f, QuantizerFor(media.QualityVHS), l)
					if j == 0 {
						vv += len(data)
					} else {
						va += len(data)
					}
					yuv, err := VJPGDecodeYUV(data)
					if err != nil {
						t.Fatal(err)
					}
					rgb, err := VJPGDecode(data)
					if err != nil {
						t.Fatal(err)
					}
					pix[j] = append(yuv.Pix, rgb.Pix...)
				}
				if !bytes.Equal(pix[0], pix[1]) {
					t.Errorf("%dx%d body %d frame %d: the VA frame decodes to other pixels than the VV frame", s.w, s.h, c, i)
				}
			}
		}
		t.Logf("%dx%d×%d×4: VV %d B, VA %d B (%+.1f %%)", s.w, s.h, s.frames, vv, va, 100*float64(va-vv)/float64(vv))
		if vv != s.vv || va != s.va || va > vv {
			t.Errorf("%dx%d: VV %d B, VA %d B; want %d and %d, VA no more", s.w, s.h, vv, va, s.vv, s.va)
		}
	}
}

// TestArithSameResiduals: over generator frames at four sizes, an odd
// one among them, 1 and 2 pixels wide, noise and a flat frame, at
// quantizers from 1 to 128, a "VA" frame decodes to the "VV" frame's
// YUV, its residuals read by the reference are the "VV" frame's, and
// those residuals recoded as a "VA" frame are the frame VJPGEncode
// writes.
func TestArithSameResiduals(t *testing.T) {
	var corpus []*frame.Frame
	for i, size := range [][2]int{{160, 120}, {64, 48}, {32, 24}, {17, 9}, {1, 24}, {2, 24}} {
		g := frame.Generator{W: size[0], H: size[1], Seed: int64(11 + i)}
		corpus = append(corpus, g.Frame(0), g.Frame(7))
	}
	corpus = append(corpus, frame.Noise(64, 48, 3), frame.Flat(32, 24, 200, 40, 90))
	for _, f := range corpus {
		for _, q := range []int{1, 4, 12, 128} {
			vv, va := encodeLayer(t, f, q, layerVert), encodeLayer(t, f, q, layerArith)
			a, errA := VJPGDecodeYUV(vv)
			b, errB := VJPGDecodeYUV(va)
			if errA != nil || errB != nil || !bytes.Equal(a.Pix, b.Pix) {
				t.Errorf("%dx%d at q %d: %v, %v, or the frames decode to other pixels", f.Width, f.Height, q, errA, errB)
			}
			segV, errV := refSegments(vv)
			segA, errA := refSegments(va)
			if errV != nil || errA != nil || !slices.EqualFunc(segV, segA, slices.Equal) {
				t.Errorf("%dx%d at q %d: the reference reads other residuals (%v, %v)", f.Width, f.Height, q, errV, errA)
			}
			if !bytes.Equal(recode(t, vv, layerArith), va) {
				t.Errorf("%dx%d at q %d: recoded as VA, the VV frame is not the VA frame", f.Width, f.Height, q)
			}
		}
	}
}

// TestArithBeatsVertAtEveryFactor is TestVertBeatsLumaBiasAtEveryFactor's
// successor for the generation written now: "VA" frames at the four
// factors are strictly monotone in bytes and in PSNR, and at every
// factor take fewer bytes than "VV" frames at the same PSNR.
func TestArithBeatsVertAtEveryFactor(t *testing.T) {
	checkBeatsAtEveryFactor(t, layerVert, layerArith, true)
}
