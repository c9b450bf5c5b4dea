package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"timedmedia/internal/audio"
	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

func genFrames(n, w, h int, seed int64) []*frame.Frame {
	g := frame.Generator{W: w, H: h, Seed: seed}
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = g.Frame(i)
	}
	return out
}

func TestVJPGRoundTripQuality(t *testing.T) {
	f := frame.Generator{W: 64, H: 48, Seed: 7}.Frame(0)
	for _, q := range []media.Quality{media.QualityPreview, media.QualityVHS, media.QualityBroadcast} {
		data, err := VJPGEncode(f, QuantizerFor(q))
		if err != nil {
			t.Fatal(err)
		}
		got, err := VJPGDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := frame.PSNR(f, got)
		if p < 20 {
			t.Errorf("%v: PSNR = %.1f dB", q, p)
		}
	}
}

func TestVJPGQualityMonotone(t *testing.T) {
	// Higher quality factor → larger encoding and higher PSNR: the
	// "quality factors" contract of Section 2.2.
	f := frame.Generator{W: 64, H: 48, Seed: 7}.Frame(0)
	var prevSize int
	var prevPSNR float64
	for _, q := range []media.Quality{media.QualityPreview, media.QualityVHS, media.QualityBroadcast, media.QualityStudio} {
		data, _ := VJPGEncode(f, QuantizerFor(q))
		rec, _ := VJPGDecode(data)
		p, _ := frame.PSNR(f, rec)
		if len(data) <= prevSize {
			t.Errorf("%v: size %d not larger than previous %d", q, len(data), prevSize)
		}
		if p <= prevPSNR {
			t.Errorf("%v: PSNR %.1f not higher than previous %.1f", q, p, prevPSNR)
		}
		prevSize, prevPSNR = len(data), p
	}
}

func TestVJPGCompresses(t *testing.T) {
	f := frame.Generator{W: 64, H: 48, Seed: 1}.Frame(0)
	raw := len(f.Pix)
	data, _ := VJPGEncode(f, QuantizerFor(media.QualityVHS))
	if len(data) >= raw/3 {
		t.Errorf("vjpg VHS: %d bytes vs raw %d — expected >3:1 on synthetic content", len(data), raw)
	}
}

func TestVJPGVariableElementSize(t *testing.T) {
	// Different frames compress to different sizes: the "encoded video
	// frames are variable sized" property that forces explicit
	// interpretation tables (Section 4.1).
	frames := genFrames(10, 64, 48, 11)
	sizes := map[int]bool{}
	for _, f := range frames {
		data, _ := VJPGEncode(f, QuantizerFor(media.QualityVHS))
		sizes[len(data)] = true
	}
	if len(sizes) < 2 {
		t.Error("all frames encoded to identical sizes")
	}
}

func TestVJPGDims(t *testing.T) {
	f := frame.Flat(33, 17, 1, 2, 3)
	data, _ := VJPGEncode(f, 8)
	w, h, err := VJPGDims(data)
	if err != nil || w != 33 || h != 17 {
		t.Errorf("dims = %dx%d err=%v", w, h, err)
	}
}

func TestVJPGErrors(t *testing.T) {
	f := frame.Flat(8, 8, 0, 0, 0)
	if _, err := VJPGEncode(f, 0); err == nil {
		t.Error("quantizer 0 must fail")
	}
	if _, err := VJPGEncode(f, 200); err == nil {
		t.Error("quantizer 200 must fail")
	}
	if _, err := VJPGDecode([]byte("XX")); err == nil {
		t.Error("bad magic must fail")
	}
	data, _ := VJPGEncode(f, 8)
	if _, err := VJPGDecode(data[:len(data)-1]); err == nil {
		t.Error("truncated stream must fail")
	}
	// FuzzVJPGDecode's reference parses the header with vjpgHeader too,
	// so the quantizer's bound is held here.
	for _, q := range []byte{0, 129, 255} {
		bad := append(append([]byte{}, data[:2]...), q)
		if _, err := VJPGDecode(append(bad, data[3:]...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("quantizer %d: %v, want ErrCorrupt", q, err)
		}
	}
}

func TestVMPGStorageOrderOutOfOrder(t *testing.T) {
	// Four frames, keys at 0 and 3: the paper's placement order
	// "1,4,2,3" (here 0-based: 0,3,1,2).
	frames := genFrames(4, 32, 24, 2)
	packets, err := VMPGEncode(frames, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	order := StorageOrder(packets)
	want := []int{0, 3, 1, 2}
	if len(order) != 4 {
		t.Fatalf("packets = %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("storage order = %v, want %v", order, want)
		}
	}
	if !packets[0].Key || !packets[1].Key || packets[2].Key || packets[3].Key {
		t.Error("key flags wrong")
	}
}

func TestVMPGRoundTrip(t *testing.T) {
	frames := genFrames(13, 48, 32, 4)
	packets, err := VMPGEncode(frames, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VMPGDecode(packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames", len(got))
	}
	for i := range frames {
		p, _ := frame.PSNR(frames[i], got[i])
		if p < 18 {
			t.Errorf("frame %d PSNR = %.1f", i, p)
		}
	}
}

// staticSceneFrames renders a fixed background with only a small
// moving box — the temporal-redundancy regime interframe coding
// exists for.
func staticSceneFrames(n, w, h int) []*frame.Frame {
	// A noise background is expensive to code intra but free to code
	// inter while it stays still.
	base := frame.Noise(w, h, 15)
	out := make([]*frame.Frame, n)
	for i := range out {
		f := base.Clone()
		bx := (i * 3) % (w - 8)
		for y := 4; y < 10 && y < h; y++ {
			for x := bx; x < bx+8; x++ {
				f.SetRGB(x, y, 240, 240, 30)
			}
		}
		out[i] = f
	}
	return out
}

func TestVMPGBeatsVJPGOnRate(t *testing.T) {
	// Interframe coding must beat intraframe on temporally redundant
	// content — the reason the paper's example uses MPEG-class rates.
	frames := staticSceneFrames(12, 64, 48)
	var vj, vm int
	for _, f := range frames {
		d, _ := VJPGEncode(f, 12)
		vj += len(d)
	}
	packets, _ := VMPGEncode(frames, 12, 6)
	for _, p := range packets {
		vm += len(p.Data)
	}
	if vm >= vj {
		t.Errorf("vmpg %d bytes >= vjpg %d bytes", vm, vj)
	}
}

func TestVMPGHeterogeneousDescriptors(t *testing.T) {
	frames := genFrames(6, 32, 24, 8)
	packets, _ := VMPGEncode(frames, 8, 5)
	keys, inter := 0, 0
	for _, p := range packets {
		if p.Desc().Key {
			keys++
		} else {
			inter++
		}
	}
	if keys != 2 || inter != 4 {
		t.Errorf("keys=%d inter=%d", keys, inter)
	}
}

func TestVMPGDecodeFrameRandomAccess(t *testing.T) {
	frames := genFrames(9, 32, 24, 9)
	packets, _ := VMPGEncode(frames, 8, 4)
	for _, idx := range []int{0, 2, 4, 7, 8} {
		got, err := VMPGDecodeFrame(packets, idx)
		if err != nil {
			t.Fatalf("frame %d: %v", idx, err)
		}
		p, _ := frame.PSNR(frames[idx], got)
		if p < 18 {
			t.Errorf("frame %d PSNR = %.1f", idx, p)
		}
	}
	if _, err := VMPGDecodeFrame(packets, 99); err == nil {
		t.Error("missing frame must fail")
	}
}

func TestVMPGSingleFrame(t *testing.T) {
	frames := genFrames(1, 16, 16, 1)
	packets, err := VMPGEncode(frames, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) != 1 || !packets[0].Key {
		t.Fatalf("packets = %+v", packets)
	}
	got, err := VMPGDecode(packets)
	if err != nil || len(got) != 1 {
		t.Fatalf("decode: %v", err)
	}
}

func TestVMPGErrors(t *testing.T) {
	frames := genFrames(4, 16, 16, 1)
	if _, err := VMPGEncode(frames, 8, 0); err == nil {
		t.Error("gop 0 must fail")
	}
	mixed := append(genFrames(2, 16, 16, 1), frame.Flat(8, 8, 0, 0, 0))
	if _, err := VMPGEncode(mixed, 8, 2); err == nil {
		t.Error("mixed geometry must fail")
	}
	// Decode with no keys.
	packets, _ := VMPGEncode(frames, 8, 3)
	var noKeys []VMPGPacket
	for _, p := range packets {
		if !p.Key {
			noKeys = append(noKeys, p)
		}
	}
	if _, err := VMPGDecode(noKeys); err == nil {
		t.Error("decode without keys must fail")
	}
}

func TestVJPGLayeredScalability(t *testing.T) {
	f := frame.Generator{W: 64, H: 48, Seed: 12}.Frame(3)
	base, enh, err := VJPGEncodeLayered(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Base alone: fewer bytes, half resolution, usable.
	if len(base) >= len(base)+len(enh) {
		t.Error("base must be a strict subset of the data")
	}
	low, err := VJPGDecodeBase(base)
	if err != nil {
		t.Fatal(err)
	}
	if low.Width != 32 || low.Height != 24 {
		t.Errorf("base dims = %dx%d", low.Width, low.Height)
	}
	// Full: better fidelity than upsampled base.
	full, err := VJPGDecodeLayered(base, enh)
	if err != nil {
		t.Fatal(err)
	}
	if full.Width != 64 || full.Height != 48 {
		t.Errorf("full dims = %dx%d", full.Width, full.Height)
	}
	pFull, _ := frame.PSNR(f, full)
	if pFull < 25 {
		t.Errorf("layered full PSNR = %.1f", pFull)
	}
}

func TestVJPGLayeredErrors(t *testing.T) {
	f := frame.Generator{W: 32, H: 32, Seed: 1}.Frame(0)
	base, enh, _ := VJPGEncodeLayered(f, 8)
	if _, err := VJPGDecodeLayered(base, enh[:3]); err == nil {
		t.Error("truncated enhancement must fail")
	}
	if _, err := VJPGDecodeLayered(base, append([]byte("XX"), enh[2:]...)); err == nil {
		t.Error("bad enhancement magic must fail")
	}
	yuv := frame.New(8, 8, media.ColorYUV422)
	if _, _, err := VJPGEncodeLayered(yuv, 8); err == nil {
		t.Error("non-RGB layered encode must fail")
	}
}

func TestQuantizerFor(t *testing.T) {
	if QuantizerFor(media.QualityStudio) != 1 {
		t.Error("studio must be near-lossless")
	}
	if QuantizerFor(media.QualityPreview) <= QuantizerFor(media.QualityVHS) {
		t.Error("preview must quantize harder than VHS")
	}
	if QuantizerFor(media.QualityUnspecified) != QuantizerFor(media.QualityVHS) {
		t.Error("default quality is VHS")
	}
}

func TestVMPGMotionCompensationHelpsOnPan(t *testing.T) {
	// A panning scene: content shifts 2 px/frame. Motion-compensated
	// intermediates must reconstruct well (keys 8 apart mean the
	// interpolation ghost would be 16 px wide without MC).
	w, h := 96, 64
	// A wide textured scene (smooth gradient + features) viewed
	// through a window panning 2 px/frame.
	wide := frame.Generator{W: w * 2, H: h, Seed: 31}.Frame(0)
	frames := make([]*frame.Frame, 9)
	for i := range frames {
		f := frame.New(w, h, media.ColorRGB)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				r, g, b := wide.RGB(x+2*i, y)
				f.SetRGB(x, y, r, g, b)
			}
		}
		frames[i] = f
	}
	packets, err := VMPGEncode(frames, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VMPGDecode(packets)
	if err != nil {
		t.Fatal(err)
	}
	// Every intermediate reconstructs well despite the 16-px key gap:
	// each block is within the ±4 px search range of one of the keys.
	for i := range frames {
		p, _ := frame.PSNR(frames[i], got[i])
		if p < 20 {
			t.Errorf("panning frame %d PSNR = %.1f", i, p)
		}
	}
	// And some blocks actually chose motion vectors: the motion field
	// should make the stream smaller than interpolation-only would
	// need for this content (sanity: intermediates smaller than keys).
	var keyBytes, interBytes, inter int
	for _, pk := range packets {
		if pk.Key {
			keyBytes += len(pk.Data)
		} else {
			interBytes += len(pk.Data)
			inter++
		}
	}
	if inter == 0 {
		t.Fatal("no intermediates")
	}
	if interBytes/inter >= keyBytes/2 {
		t.Errorf("avg intermediate %d B vs key %d B — MC ineffective", interBytes/inter, keyBytes/2)
	}
}

func TestMVCodeRoundTrip(t *testing.T) {
	for ref := 0; ref <= 1; ref++ {
		for dy := -mcRange; dy <= mcRange; dy++ {
			for dx := -mcRange; dx <= mcRange; dx++ {
				code := mvCode(ref, dx, dy)
				if code == 0 {
					t.Fatalf("mv (%d,%d,%d) coded as interpolation", ref, dx, dy)
				}
				gr, gx, gy := mvDecode(code)
				if gr != ref || gx != dx || gy != dy {
					t.Fatalf("mv (%d,%d,%d) → %d → (%d,%d,%d)", ref, dx, dy, code, gr, gx, gy)
				}
			}
		}
	}
}

func TestVJPGRoundTripProperty(t *testing.T) {
	// Over random generator seeds and geometries, decode(encode(f))
	// stays within the VHS quality bound and never errors. Both sides
	// are at least 16 px: on a frame with a side of 8–13 the generator's
	// pattern is a few hard edges per 8×8 block, and one draw in ~70
	// dipped under the bound.
	if err := quick.Check(func(seed int64, w8, h8 uint8) bool {
		w := int(w8%112) + 16
		h := int(h8%82) + 16
		f := frame.Generator{W: w, H: h, Seed: seed}.Frame(int(seed % 17))
		data, err := VJPGEncode(f, QuantizerFor(media.QualityVHS))
		if err != nil {
			return false
		}
		rec, err := VJPGDecode(data)
		if err != nil {
			return false
		}
		if rec.Width != w || rec.Height != h {
			return false
		}
		p, err := frame.PSNR(f, rec)
		return err == nil && p > 18
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuantizerErrorBound: over random planes, at every quantizer and
// under every predictor — the mean, the median edge detector, and the
// detector over a bias-corrected row above, in a chroma plane and in a
// luma plane — every reconstructed pixel is within q-1-q/3 of the
// original (see roundDiv) — 7 at VHS's q = 12.
func TestQuantizerErrorBound(t *testing.T) {
	if err := quick.Check(func(seed int64, w8, h8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := int(w8%40)+1, int(h8%24)+1
		// A gradient under noise of one of five amplitudes: flat and
		// smooth planes give zero runs, noisy ones large residuals.
		amp := []int{0, 2, 8, 64, 256}[rng.Intn(5)]
		gx, gy, c := rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(256)
		pix := make([]byte, w*h)
		for i := range pix {
			pix[i] = clamp8(c + gx*(i%w) + gy*(i/w) + rng.Intn(amp+1) - amp/2)
		}
		rec := make([]byte, len(pix))
		var encBias, decBias biasState
		var refs vertRefs
		for _, l := range []layer{layerRice, layerMED, layerBias, layerLuma, layerVert} {
			for q := 1; q <= 128; q++ {
				// layerBias: a chroma plane of a "VB" frame;
				// layerLuma and layerVert: the luma plane of a "VY"
				// and of a "VV" frame.
				pi := 1
				if l == layerLuma || l == layerVert {
					pi = 0
				}
				pl, eb := planeLayer(l, pi, &encBias)
				_, db := planeLayer(l, pi, &decBias)
				var enc []byte
				if pl == layerVert {
					enc = riceEncodePlane(nil, planeResiduals(pix, w, q, pl, eb), w)
				} else {
					enc = encodePlane(nil, pix, w, q, pl, eb)
				}
				if n, err := decodePlane(enc, rec, w, q, pl, db, &refs); err != nil || n != len(enc) {
					t.Logf("layer %d, q %d, %dx%d: %d of %d bytes, %v", l, q, w, h, n, len(enc), err)
					return false
				}
				for i, v := range pix {
					if d := int(v) - int(rec[i]); d > q-1-q/3 || -d > q-1-q/3 {
						t.Logf("layer %d, q %d, %dx%d: pixel %d is %d, reconstructed %d", l, q, w, h, i, v, rec[i])
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMEDBeatsMeanAtEveryFactor is the S1 sweep at reduced scale, on
// the four bodies the benchmark's clips hold (bench/seed: generator
// seeds 41, 97, 153 and 209 at 160×120), a few frames each. Under the
// median edge detector the four quality factors are strictly monotone
// in bytes and in PSNR; and at every factor the frames take fewer bytes
// than the same frames mean-predicted, through the same loop in
// layerRice, at no lower PSNR.
func TestMEDBeatsMeanAtEveryFactor(t *testing.T) {
	checkBeatsAtEveryFactor(t, layerRice, layerMED, true)
}

// TestBiasBeatsMEDAtEveryFactor is its successor for the generation
// written now: with chroma bias-corrected ("VB") the four factors are
// strictly monotone in bytes and in PSNR, and at every factor the
// frames take fewer bytes than "VN" frames at no lower PSNR.
func TestBiasBeatsMEDAtEveryFactor(t *testing.T) {
	checkBeatsAtEveryFactor(t, layerMED, layerBias, true)
}

// TestLumaBiasBeatsBiasAtEveryFactor is its successor for the
// generation written now: with every plane bias-corrected ("VY") the
// four factors are strictly monotone in bytes and in PSNR, and at every
// factor the frames take fewer bytes than "VB" frames. Their PSNR may be
// a little lower — up to 0.14 dB at VHS quality for a quarter to a third
// fewer bytes — so the rule is rate-distortion: no "VB" factor reaches a
// "VY" factor's PSNR in as few bytes, and none is more than maxPSNRLoss
// above it.
func TestLumaBiasBeatsBiasAtEveryFactor(t *testing.T) {
	checkBeatsAtEveryFactor(t, layerBias, layerLuma, false)
}

// TestVertBeatsLumaBiasAtEveryFactor is its successor for the
// generation after it: with vertical runs ("VV") the four factors are
// strictly monotone in bytes and in PSNR, and at every factor the frames
// take fewer bytes than "VY" frames at the same PSNR — 0 dB apart, since
// a "VV" frame codes a "VY" frame's residuals and decodes to its pixels.
func TestVertBeatsLumaBiasAtEveryFactor(t *testing.T) {
	checkBeatsAtEveryFactor(t, layerLuma, layerVert, true)
	for c := 0; c < 4; c++ {
		for _, f := range genFrames(3, 160, 120, int64(41+56*c)) {
			for _, qf := range []media.Quality{media.QualityPreview, media.QualityVHS, media.QualityBroadcast, media.QualityStudio} {
				var pix [2][]byte
				for i, l := range []layer{layerLuma, layerVert} {
					data := encodeLayer(t, f, QuantizerFor(qf), l)
					rec, err := VJPGDecode(data)
					if err != nil {
						t.Fatal(err)
					}
					pix[i] = rec.Pix
				}
				if !bytes.Equal(pix[0], pix[1]) {
					t.Errorf("body %d, %v: the VV frame decodes to other pixels than the VY frame", c, qf)
				}
			}
		}
	}
}

// TestVerticalPlanesNeverGrow: over generator frames at four sizes, an
// odd one among them, noise and a flat frame, at quantizers from 1 to
// 128, no plane of a "VV" frame takes more bytes than the same plane
// of a "VY" frame, and one not in vertical mode is that plane byte for
// byte; every frame decodes to the same YUV in either layer; and a "VV"
// frame's tokens recoded as a "VY" frame's (recode) are that frame.
func TestVerticalPlanesNeverGrow(t *testing.T) {
	var corpus []*frame.Frame
	for i, size := range [][2]int{{160, 120}, {64, 48}, {32, 24}, {17, 9}} {
		g := frame.Generator{W: size[0], H: size[1], Seed: int64(11 + i)}
		corpus = append(corpus, g.Frame(0), g.Frame(7))
	}
	corpus = append(corpus, frame.Noise(64, 48, 3), frame.Flat(32, 24, 200, 40, 90))
	vertical, planes := 0, 0
	for _, f := range corpus {
		yuv, err := RGBToYUV422(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{1, 4, 12, 128} {
			var lumaBias, vertBias biasState
			for pi, p := range yuvPlanes(yuv) {
				pq := planeQuantizer(q, pi)
				ll, lb := planeLayer(layerLuma, pi, &lumaBias)
				vl, vb := planeLayer(layerVert, pi, &vertBias)
				vy := encodePlane(nil, p.pix, p.w, pq, ll, lb)
				vv := riceEncodePlane(nil, planeResiduals(p.pix, p.w, pq, vl, vb), p.w)
				if len(vv) > len(vy) || vv[1]&15 == 0 && !bytes.Equal(vv, vy) {
					t.Errorf("%dx%d at q %d, plane %d: %d B, mode %d; %d B as a VY plane", f.Width, f.Height, q, pi, len(vv), vv[1]&15, len(vy))
				}
				if vv[1]&15 == 1 {
					vertical++
				}
				planes++
			}
			vy, err := encodeVJPG(f, q, layerLuma)
			if err != nil {
				t.Fatal(err)
			}
			vv := encodeLayer(t, f, q, layerVert)
			a, errA := VJPGDecodeYUV(vy)
			b, errB := VJPGDecodeYUV(vv)
			if errA != nil || errB != nil || !bytes.Equal(a.Pix, b.Pix) {
				t.Errorf("%dx%d at q %d: %v, %v, or the frames decode to other pixels", f.Width, f.Height, q, errA, errB)
			}
			if !bytes.Equal(recode(t, vv, layerLuma), vy) {
				t.Errorf("%dx%d at q %d: recoded as VY, the VV frame is not the VY frame", f.Width, f.Height, q)
			}
		}
	}
	t.Logf("%d of %d planes in vertical mode", vertical, planes)
}

// TestRoundDivExact: the reciprocal quantizer divides exactly — for every
// residual r in [-255, 255] at every quantizer q in [1, 128],
// roundDiv is the dead-zone quotient written with two divisions.
func TestRoundDivExact(t *testing.T) {
	for q := 1; q <= 128; q++ {
		z := newQuantizer(q)
		for r := -255; r <= 255; r++ {
			want := (r + q/3) / q
			if r < 0 {
				want = -((-r + q/3) / q)
			}
			if got := z.roundDiv(r); got != want {
				t.Fatalf("q %d, r %d: %d, want %d", q, r, got, want)
			}
		}
	}
}

// maxPSNRLoss bounds, in dB, how far below the generation before it a
// vjpg generation may reconstruct at one quality factor (DESIGN §2).
const maxPSNRLoss = 0.2

// checkBeatsAtEveryFactor holds vjpg layer newer to the S1 sweep on the
// four bodies, against older: at every factor newer takes fewer bytes
// than older, and its four factors are strictly monotone in bytes and
// in PSNR. With samePSNR it also reaches no lower PSNR than older at
// each factor; without, it is undominated — no factor of older
// reaches its PSNR in as few bytes — and no more than maxPSNRLoss below
// older at each factor, so that no later generation trades away more.
func checkBeatsAtEveryFactor(t *testing.T, older, newer layer, samePSNR bool) {
	factors := []media.Quality{media.QualityPreview, media.QualityVHS, media.QualityBroadcast, media.QualityStudio}
	type point struct {
		bytes int
		psnr  float64
	}
	for c := 0; c < 4; c++ {
		frames := genFrames(3, 160, 120, int64(41+56*c))
		var sweep [2][]point // older's, then newer's, one point a factor
		for _, qf := range factors {
			for i, l := range []layer{older, newer} {
				var pt point
				for _, f := range frames {
					data := encodeLayer(t, f, QuantizerFor(qf), l)
					rec, err := VJPGDecode(data)
					if err != nil {
						t.Fatal(err)
					}
					p, _ := frame.PSNR(f, rec)
					pt.bytes += len(data)
					pt.psnr += p / float64(len(frames))
				}
				sweep[i] = append(sweep[i], pt)
			}
		}
		older, newer := vjpgMagics[older], vjpgMagics[newer]
		var prev point
		for fi, qf := range factors {
			o, n := sweep[0][fi], sweep[1][fi]
			t.Logf("body %d, %v: %d B %.2f dB %s, %d B %.2f dB %s", c, qf, o.bytes, o.psnr, older, n.bytes, n.psnr, newer)
			if n.bytes >= o.bytes || samePSNR && n.psnr < o.psnr || n.psnr < o.psnr-maxPSNRLoss {
				t.Errorf("body %d, %v: %s %d B at %.3f dB, %s %d B at %.3f dB", c, qf, newer, n.bytes, n.psnr, older, o.bytes, o.psnr)
			}
			for _, d := range sweep[0] {
				if !samePSNR && d.bytes <= n.bytes && d.psnr >= n.psnr {
					t.Errorf("body %d, %v: %s %d B at %.3f dB is dominated by %s %d B at %.3f dB", c, qf, newer, n.bytes, n.psnr, older, d.bytes, d.psnr)
				}
			}
			if n.bytes <= prev.bytes || n.psnr <= prev.psnr {
				t.Errorf("body %d, %v: %s %d B at %.3f dB, the factor below %d B at %.3f dB", c, qf, newer, n.bytes, n.psnr, prev.bytes, prev.psnr)
			}
			prev = n
		}
	}
}

func TestADPCMRoundTripProperty(t *testing.T) {
	// Random tones through ADPCM keep at least 15 dB SNR and exact
	// frame counts.
	if err := quick.Check(func(seed int64, n16 uint16, ch8 uint8) bool {
		frames := int(n16%8000) + 2000
		channels := int(ch8%2) + 1
		freq := 100 + float64(absSeed(seed)%2000)
		b := audio.Sine(frames, channels, freq, 44100, 0.5)
		blocks, err := ADPCMEncode(b, 512)
		if err != nil {
			return false
		}
		got, err := ADPCMDecode(blocks, channels)
		if err != nil {
			return false
		}
		if got.Frames() != frames {
			return false
		}
		// Measure steady state: the IMA step size needs ~1000 samples
		// to adapt from its tiny initial value.
		half := frames / 2
		return audio.SNR(b.Slice(half, frames), got.Slice(half, frames)) > 12
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func absSeed(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
