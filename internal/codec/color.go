package codec

import (
	"fmt"

	"timedmedia/internal/frame"
	"timedmedia/internal/media"
)

// RGBToYUV422 converts an RGB frame to planar YUV with 8:2:2 chroma
// subsampling, the transformation of the paper's Figure 2 example
// ("The RGB values are then converted to YUV, Y is given 8 bits per
// pixel, U and V are subsampled ... There are now 12 bits per pixel";
// our planar variant stores full-height half-width chroma, 16 bpp,
// and the subsequent vjpg quantization provides the rate reduction).
func RGBToYUV422(f *frame.Frame) (*frame.Frame, error) {
	if f.Model != media.ColorRGB {
		return nil, fmt.Errorf("%w: RGBToYUV422 requires RGB input, got %v", ErrBadGeometry, f.Model)
	}
	w, h := f.Width, f.Height
	out := frame.New(w, h, media.ColorYUV422)
	cw := (w + 1) / 2
	yPlane := out.Pix[:w*h]
	uPlane := out.Pix[w*h : w*h+cw*h]
	vPlane := out.Pix[w*h+cw*h:]
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := f.RGB(x, y)
			// BT.601-style integer transform.
			yy := (66*int(r) + 129*int(g) + 25*int(b) + 128) >> 8
			yPlane[y*w+x] = clamp8(yy + 16)
		}
		for cx := 0; cx < cw; cx++ {
			x0 := cx * 2
			x1 := x0 + 1
			if x1 >= w {
				x1 = x0
			}
			r0, g0, b0 := f.RGB(x0, y)
			r1, g1, b1 := f.RGB(x1, y)
			r, g, b := (int(r0)+int(r1))/2, (int(g0)+int(g1))/2, (int(b0)+int(b1))/2
			u := (-38*r - 74*g + 112*b + 128) >> 8
			v := (112*r - 94*g - 18*b + 128) >> 8
			uPlane[y*cw+cx] = clamp8(u + 128)
			vPlane[y*cw+cx] = clamp8(v + 128)
		}
	}
	return out, nil
}

// YUV422ToRGB inverts RGBToYUV422 (up to subsampling loss).
func YUV422ToRGB(f *frame.Frame) (*frame.Frame, error) {
	if f.Model != media.ColorYUV422 {
		return nil, fmt.Errorf("%w: YUV422ToRGB requires YUV input, got %v", ErrBadGeometry, f.Model)
	}
	out := frame.New(f.Width, f.Height, media.ColorRGB)
	yuv422ToRGB(out.Pix, f.Pix, f.Width, f.Height)
	return out, nil
}

// The BT.601-style inverse transform, per pixel:
//
//	r = (298(Y-16) + 409(V-128) + 128) >> 8
//	g = (298(Y-16) - 100(U-128) - 208(V-128) + 128) >> 8
//	b = (298(Y-16) + 516(U-128) + 128) >> 8
//
// each clamped to a byte. The tables hold every product by the stored
// byte. The luma term also carries the rounding constant and a bias of
// clampBias<<8, so each shifted sum lands in clampTab already offset:
// over all inputs it spans [-277, 534] + clampBias, inside the table.
const clampBias = 384

var (
	lumaTerm, redV, greenU, greenV, blueU [256]int32
	clampTab                              [1024]byte
)

func init() {
	for i := range 256 {
		c := int32(i) - 128
		lumaTerm[i] = 298*(int32(i)-16) + 128 + clampBias<<8
		redV[i], greenU[i], greenV[i], blueU[i] = 409*c, -100*c, -208*c, 516*c
	}
	for i := range clampTab {
		clampTab[i] = clamp8(i - clampBias)
	}
}

// chromaTerms returns the red, green and blue chroma products of one
// chroma sample, shared by the two pixels it covers.
func chromaTerms(u, v byte) (rv, guv, bu int32) {
	return redV[v], greenU[u] + greenV[v], blueU[u]
}

// rgbPixel writes one pixel from its luma byte and its chroma terms.
// The index mask never changes a value (see clampBias); it lets the
// compiler drop the bounds check.
func rgbPixel(o []byte, y byte, rv, guv, bu int32) {
	_ = o[2]
	luma := lumaTerm[y]
	o[0] = clampTab[(luma+rv)>>8&1023]
	o[1] = clampTab[(luma+guv)>>8&1023]
	o[2] = clampTab[(luma+bu)>>8&1023]
}

// yuv422ToRGB converts the planar YUV 8:2:2 buffer src of w×h into the
// interleaved RGB buffer dst, a row at a time and two pixels per chroma
// sample.
func yuv422ToRGB(dst, src []byte, w, h int) {
	cw := (w + 1) / 2
	yPlane := src[:w*h]
	uPlane := src[w*h : w*h+cw*h]
	vPlane := src[w*h+cw*h:]
	for y := 0; y < h; y++ {
		ys := yPlane[y*w : y*w+w]
		us := uPlane[y*cw : y*cw+cw]
		vs := vPlane[y*cw : y*cw+cw]
		out := dst[3*y*w : 3*y*w+3*w]
		for cx := range w / 2 {
			rv, guv, bu := chromaTerms(us[cx], vs[cx])
			o, yy := out[6*cx:6*cx+6], ys[2*cx:2*cx+2]
			rgbPixel(o[:3], yy[0], rv, guv, bu)
			rgbPixel(o[3:], yy[1], rv, guv, bu)
		}
		if w%2 == 1 { // the last chroma sample covers one pixel
			rv, guv, bu := chromaTerms(us[cw-1], vs[cw-1])
			rgbPixel(out[3*w-3:], ys[w-1], rv, guv, bu)
		}
	}
}

// SeparationTable parameterizes RGB→CMYK color separation — the
// paper's Table 1 derivation whose mapping "is not unique, additional
// information must be provided as parameters ... defined in separation
// tables which account for physical characteristics of inks and
// papers".
type SeparationTable struct {
	// UCR is the under-color-removal fraction (0..1): how much of the
	// common gray component moves into the black plate.
	UCR float64
	// InkLimit caps total ink coverage per pixel, 0..4 in plate units
	// (4 = no limit).
	InkLimit float64
}

// DefaultSeparation is a neutral table: full UCR, no ink limit.
func DefaultSeparation() SeparationTable { return SeparationTable{UCR: 1.0, InkLimit: 4.0} }

// RGBToCMYK separates an RGB frame into a 4-component CMYK frame
// according to the table.
func RGBToCMYK(f *frame.Frame, table SeparationTable) (*frame.Frame, error) {
	if f.Model != media.ColorRGB {
		return nil, fmt.Errorf("%w: RGBToCMYK requires RGB input, got %v", ErrBadGeometry, f.Model)
	}
	if table.UCR < 0 || table.UCR > 1 || table.InkLimit <= 0 {
		return nil, fmt.Errorf("codec: invalid separation table %+v", table)
	}
	w, h := f.Width, f.Height
	out := frame.New(w, h, media.ColorCMYK)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, b := f.RGB(x, y)
			c := 1 - float64(r)/255
			m := 1 - float64(g)/255
			yl := 1 - float64(b)/255
			k := min3(c, m, yl) * table.UCR
			if k < 1 {
				c = (c - k) / (1 - k)
				m = (m - k) / (1 - k)
				yl = (yl - k) / (1 - k)
			} else {
				c, m, yl = 0, 0, 0
			}
			// Apply ink limit by proportional scaling.
			total := c + m + yl + k
			if total > table.InkLimit {
				scale := table.InkLimit / total
				c, m, yl, k = c*scale, m*scale, yl*scale, k*scale
			}
			i := (y*w + x) * 4
			out.Pix[i] = byte(c*255 + 0.5)
			out.Pix[i+1] = byte(m*255 + 0.5)
			out.Pix[i+2] = byte(yl*255 + 0.5)
			out.Pix[i+3] = byte(k*255 + 0.5)
		}
	}
	return out, nil
}

// CMYKToRGB approximately inverts RGBToCMYK (for display/tests).
func CMYKToRGB(f *frame.Frame) (*frame.Frame, error) {
	if f.Model != media.ColorCMYK {
		return nil, fmt.Errorf("%w: CMYKToRGB requires CMYK input, got %v", ErrBadGeometry, f.Model)
	}
	w, h := f.Width, f.Height
	out := frame.New(w, h, media.ColorRGB)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 4
			c := float64(f.Pix[i]) / 255
			m := float64(f.Pix[i+1]) / 255
			yl := float64(f.Pix[i+2]) / 255
			k := float64(f.Pix[i+3]) / 255
			r := 255 * (1 - c) * (1 - k)
			g := 255 * (1 - m) * (1 - k)
			b := 255 * (1 - yl) * (1 - k)
			out.SetRGB(x, y, byte(r+0.5), byte(g+0.5), byte(b+0.5))
		}
	}
	return out, nil
}

func clamp8(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
