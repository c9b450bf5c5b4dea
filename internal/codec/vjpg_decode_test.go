package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// refVJPGDecode is the straightforward vjpg decoder the one-pass kernel
// replaced, kept as the fuzz oracle: every plane's residuals are entropy
// decoded into a slice first, then reconstructed pixel by pixel with a
// predictor that finds its neighbours by index arithmetic, and the
// result is converted to RGB with per-pixel stores. It returns the YUV
// reconstruction and the RGB frame.
func refVJPGDecode(data []byte) (yuv, rgb *frame.Frame, err error) {
	q, w, h, body, err := vjpgHeader(data)
	if err != nil {
		return nil, nil, err
	}
	yuv = frame.New(w, h, media.ColorYUV422)
	off := 0
	for pi, p := range yuvPlanes(yuv) {
		vals, n, err := entropyDecode(body[off:], len(p.pix))
		if err != nil {
			return nil, nil, err
		}
		for i, d := range vals {
			p.pix[i] = byte(reconStep(refPredict2D(p.pix, i, p.w), int(d), planeQuantizer(q, pi)))
		}
		off += n
	}
	cw := (w + 1) / 2
	rgb = frame.New(w, h, media.ColorRGB)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			yy := int(yuv.Pix[y*w+x]) - 16
			u := int(yuv.Pix[w*h+y*cw+x/2]) - 128
			v := int(yuv.Pix[w*h+cw*h+y*cw+x/2]) - 128
			r := (298*yy + 409*v + 128) >> 8
			g := (298*yy - 100*u - 208*v + 128) >> 8
			b := (298*yy + 516*u + 128) >> 8
			rgb.SetRGB(x, y, clamp8(r), clamp8(g), clamp8(b))
		}
	}
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

// vjpgFrame builds a vjpg bitstream by hand: a header and a body.
func vjpgFrame(q, w, h int, body ...byte) []byte {
	out := append([]byte(vjpgMagic), byte(q))
	out = binary.BigEndian.AppendUint16(out, uint16(w))
	out = binary.BigEndian.AppendUint16(out, uint16(h))
	return append(out, body...)
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
	for i, q := range []int{1, 4, 12, 20, 128} {
		data, err := VJPGEncode(frame.Generator{W: 17, H: 9, Seed: int64(i)}.Frame(i), q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	one, _ := VJPGEncode(frame.Flat(1, 1, 9, 200, 31), 4)
	f.Add(one)
	// A zero run of length 0, a run past the plane's end, runs that
	// span rows, a residual past 32 bits, and a run of 2^63.
	f.Add(vjpgFrame(12, 2, 2, 0, 0))
	f.Add(vjpgFrame(12, 2, 2, 0, 5))
	f.Add(vjpgFrame(12, 3, 2, 0, 6, 0, 4, 0, 4))
	f.Add(vjpgFrame(1, 3, 1, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 0, 2, 0, 2))
	f.Add(vjpgFrame(12, 2, 2, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
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
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
