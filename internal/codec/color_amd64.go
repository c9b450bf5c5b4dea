package codec

// rgbBlocks converts the leading pixel pairs of out, ys, us and vs, as
// rgbPairs would: in blocks of eight pairs through rgbBlocksAVX2 where
// the processor has AVX2, then of four through rgbBlocksSSE2, and
// returns how many pairs it converted. It leaves at least one pair to
// the caller, so that the last SSE2 block's store, 2 bytes past its own
// 24, stays inside out. SSE2 is part of every amd64 processor.
func rgbBlocks(out, ys, us, vs []byte) int {
	k := 0
	if m := (len(us) - 1) / 8; hasAVX2 && m > 0 {
		_, _, _ = ys[16*m-1], vs[8*m-1], out[48*m-1]
		rgbBlocksAVX2(&out[0], &ys[0], &us[0], &vs[0], m)
		k = 8 * m
	}
	n := (len(us) - k - 1) / 4
	if n <= 0 {
		return k
	}
	_, _, _ = ys[2*k+8*n-1], vs[k+4*n-1], out[6*k+24*n+1]
	rgbBlocksSSE2(&out[6*k], &ys[2*k], &us[k], &vs[k], n)
	return k + 4*n
}

// rgbBlocksSSE2 converts blocks of eight pixels, in color_amd64.s: the
// transform yuv422ToRGB states, on 16-bit words multiplied into 32-bit
// sums (PMADDWD), shifted and clamped by saturating packs.
//
//go:noescape
func rgbBlocksSSE2(out, ys, us, vs *byte, blocks int)

// rgbBlocksAVX2 is rgbBlocksSSE2 for blocks of sixteen pixels, its
// bytes interleaved by PSHUFB, in color_amd64.s.
//
//go:noescape
func rgbBlocksAVX2(out, ys, us, vs *byte, blocks int)
