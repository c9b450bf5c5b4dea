package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

func TestYUVRoundTripQuality(t *testing.T) {
	f := frame.Generator{W: 64, H: 48, Seed: 3}.Frame(0)
	yuv, err := RGBToYUV422(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := YUV422ToRGB(yuv)
	if err != nil {
		t.Fatal(err)
	}
	p, err := frame.PSNR(f, back)
	if err != nil {
		t.Fatal(err)
	}
	// Chroma subsampling is lossy but mild: expect > 25 dB on
	// gradient-plus-box content.
	if p < 25 {
		t.Errorf("YUV round trip PSNR = %v dB", p)
	}
}

func TestYUVGrayIsNeutral(t *testing.T) {
	f := frame.Flat(16, 16, 128, 128, 128)
	yuv, _ := RGBToYUV422(f)
	w, h := 16, 16
	cw := (w + 1) / 2
	// Chroma of gray must be ~128 (neutral).
	u := yuv.Pix[w*h]
	v := yuv.Pix[w*h+cw*h]
	if int(u) < 126 || int(u) > 130 || int(v) < 126 || int(v) > 130 {
		t.Errorf("gray chroma = %d,%d", u, v)
	}
}

func TestYUVRequiresRGB(t *testing.T) {
	yuv := frame.New(8, 8, media.ColorYUV422)
	if _, err := RGBToYUV422(yuv); err == nil {
		t.Error("YUV input must be rejected")
	}
	rgb := frame.New(8, 8, media.ColorRGB)
	if _, err := YUV422ToRGB(rgb); err == nil {
		t.Error("RGB input must be rejected")
	}
}

func TestYUVOddWidth(t *testing.T) {
	f := frame.Flat(7, 5, 40, 80, 120)
	yuv, err := RGBToYUV422(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := YUV422ToRGB(yuv); err != nil {
		t.Fatal(err)
	}
}

func TestCMYKSeparationPrimaries(t *testing.T) {
	// Pure black separates to K plate with full UCR.
	f := frame.Flat(4, 4, 0, 0, 0)
	sep, err := RGBToCMYK(f, DefaultSeparation())
	if err != nil {
		t.Fatal(err)
	}
	if sep.Pix[3] != 255 {
		t.Errorf("black K = %d", sep.Pix[3])
	}
	if sep.Pix[0] != 0 || sep.Pix[1] != 0 || sep.Pix[2] != 0 {
		t.Errorf("black CMY = %d,%d,%d", sep.Pix[0], sep.Pix[1], sep.Pix[2])
	}
	// Pure red: C=0, M=Y=1, K=0.
	f = frame.Flat(4, 4, 255, 0, 0)
	sep, _ = RGBToCMYK(f, DefaultSeparation())
	if sep.Pix[0] != 0 || sep.Pix[1] != 255 || sep.Pix[2] != 255 || sep.Pix[3] != 0 {
		t.Errorf("red CMYK = %v", sep.Pix[:4])
	}
}

func TestCMYKRoundTrip(t *testing.T) {
	f := frame.Generator{W: 32, H: 24, Seed: 5}.Frame(0)
	sep, err := RGBToCMYK(f, DefaultSeparation())
	if err != nil {
		t.Fatal(err)
	}
	back, err := CMYKToRGB(sep)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := frame.PSNR(f, back)
	if p < 30 {
		t.Errorf("CMYK round trip PSNR = %v", p)
	}
}

func TestSeparationTableUCRChangesK(t *testing.T) {
	// Different separation parameters must produce different plates —
	// the paper's point that the mapping "is not unique".
	f := frame.Flat(4, 4, 100, 100, 100)
	full, _ := RGBToCMYK(f, SeparationTable{UCR: 1.0, InkLimit: 4})
	none, _ := RGBToCMYK(f, SeparationTable{UCR: 0.0, InkLimit: 4})
	if full.Pix[3] == none.Pix[3] {
		t.Error("UCR had no effect on the K plate")
	}
	if none.Pix[3] != 0 {
		t.Errorf("UCR=0 K = %d, want 0", none.Pix[3])
	}
}

func TestSeparationInkLimit(t *testing.T) {
	f := frame.Flat(4, 4, 10, 10, 200)
	lim, err := RGBToCMYK(f, SeparationTable{UCR: 0, InkLimit: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	total := int(lim.Pix[0]) + int(lim.Pix[1]) + int(lim.Pix[2]) + int(lim.Pix[3])
	if total > 256 {
		t.Errorf("ink total = %d exceeds limit", total)
	}
}

func TestSeparationRejectsBadTable(t *testing.T) {
	f := frame.Flat(2, 2, 0, 0, 0)
	if _, err := RGBToCMYK(f, SeparationTable{UCR: 2, InkLimit: 4}); err == nil {
		t.Error("UCR 2 must be rejected")
	}
	if _, err := RGBToCMYK(f, SeparationTable{UCR: 0.5, InkLimit: 0}); err == nil {
		t.Error("ink limit 0 must be rejected")
	}
}

func TestCMYKRequiresModels(t *testing.T) {
	if _, err := RGBToCMYK(frame.New(2, 2, media.ColorGray), DefaultSeparation()); err == nil {
		t.Error("gray input must be rejected")
	}
	if _, err := CMYKToRGB(frame.New(2, 2, media.ColorRGB)); err == nil {
		t.Error("rgb input must be rejected")
	}
}

// refRGB is the BT.601-style inverse transform as plain integer
// arithmetic, with no tables: each sum shifted (rounding toward minus
// infinity) and clamped to a byte.
func refRGB(y, u, v byte) (r, g, b byte) {
	yy, uu, vv := int(y)-16, int(u)-128, int(v)-128
	return clamp8((298*yy + 409*vv + 128) >> 8),
		clamp8((298*yy - 100*uu - 208*vv + 128) >> 8),
		clamp8((298*yy + 516*uu + 128) >> 8)
}

// refYUV422ToRGB converts a planar YUV 8:2:2 buffer of w×h pixel by
// pixel through refRGB.
func refYUV422ToRGB(src []byte, w, h int) []byte {
	cw := (w + 1) / 2
	out := make([]byte, 0, 3*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := refRGB(src[y*w+x], src[w*h+y*cw+x/2], src[w*h+cw*h+y*cw+x/2])
			out = append(out, r, g, b)
		}
	}
	return out
}

// TestYUV422ToRGBExact: the conversion returns refRGB's bytes for every
// (Y,U,V) triple — 256 frames of 256×256, one a U value, with V down
// the rows and Y along them, so each chroma sample covers two Y values
// — through the vector kernel where there is one and through the
// tables alone (rgbPairsScalar); and for random planes at widths 1, 2,
// 3 and 161, whose odd widths end each row on a pixel of its own.
func TestYUV422ToRGBExact(t *testing.T) {
	const w, h = 256, 256
	src := make([]byte, 2*w*h)
	dst := make([]byte, 3*w*h)
	for i := range w * h {
		src[i] = byte(i)
	}
	for v := range h {
		for cx := range w / 2 {
			src[w*h+w/2*h+v*w/2+cx] = byte(v)
		}
	}
	for u := range 256 {
		for i := w * h; i < w*h+w/2*h; i++ {
			src[i] = byte(u)
		}
		want := refYUV422ToRGB(src, w, h)
		for _, convert := range []func(){
			func() { yuv422ToRGB(dst, src, w, h) },
			func() { rgbPairsScalar(dst, src[:w*h], src[w*h:w*h+w/2*h], src[w*h+w/2*h:]) },
		} {
			clear(dst)
			convert()
			if !bytes.Equal(dst, want) {
				i := 0
				for dst[i] == want[i] {
					i++
				}
				p := i / 3
				t.Fatalf("Y %d U %d V %d: channel %d is %d, want %d", p%256, u, p/w, i%3, dst[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 2, 3, 161} {
		for _, h := range []int{1, 2, 7} {
			f := frame.New(w, h, media.ColorYUV422)
			rng.Read(f.Pix)
			got, err := YUV422ToRGB(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Pix, refYUV422ToRGB(f.Pix, w, h)) {
				t.Errorf("%dx%d: the kernel and the formula differ", w, h)
			}
		}
	}
}

// BenchmarkYUV422ToRGB converts one decoded frame of the benchmark's
// clip size into a buffer it reuses: the colour conversion alone, which
// allocates nothing.
func BenchmarkYUV422ToRGB(b *testing.B) {
	data, err := VJPGEncode(frame.Generator{W: 160, H: 120, Seed: 41}.Frame(3), QuantizerFor(media.QualityVHS))
	if err != nil {
		b.Fatal(err)
	}
	yuv, err := VJPGDecodeYUV(data)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 160*120*3)
	b.ReportAllocs()
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yuv422ToRGB(dst, yuv.Pix, 160, 120)
	}
}
