package codec

// rgbBlocks converts the leading pixel pairs of out, ys, us and vs, as
// rgbPairs would, in blocks of four pairs through rgbBlocksSSE2, and
// returns how many pairs it converted. It leaves at least one pair to
// the caller, so that the last block's store, 2 bytes past its own 24,
// stays inside out. SSE2 is part of every amd64 processor.
func rgbBlocks(out, ys, us, vs []byte) int {
	n := (len(us) - 1) / 4
	if n <= 0 {
		return 0
	}
	_, _, _ = ys[8*n-1], vs[4*n-1], out[24*n+1]
	rgbBlocksSSE2(&out[0], &ys[0], &us[0], &vs[0], n)
	return 4 * n
}

// rgbBlocksSSE2 converts blocks of eight pixels, in color_amd64.s: the
// transform yuv422ToRGB states, on 16-bit words multiplied into 32-bit
// sums (PMADDWD), shifted and clamped by saturating packs.
//
//go:noescape
func rgbBlocksSSE2(out, ys, us, vs *byte, blocks int)
