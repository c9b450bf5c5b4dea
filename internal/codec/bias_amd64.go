package codec

// correctBlocks corrects pixels 1 to n-2 of ref, n = len(above), from
// above through correctBlocksSSE2, as correct does one at a time, and
// returns n-1, the pixel after them, or 0 where the row is too short
// for a block. A block reads one pixel either side of its own, so pixel
// 0 and the last are never in one. The blocks run from pixel 1, and
// what they leave short of n-1 is taken by one more block ending there,
// which corrects some pixels again, to the same values. SSE2 is part of
// every amd64 processor.
func correctBlocks(ref, above []byte, corr *[256]int8) int {
	n := len(above)
	m := (n - 2) / 16
	if m <= 0 {
		return 0
	}
	_ = ref[n-1]
	correctBlocksSSE2(&ref[1], &above[0], corr, m)
	if 1+16*m < n-1 {
		correctBlocksSSE2(&ref[n-17], &above[n-18], corr, 1)
	}
	return n - 1
}

// correctBlocksSSE2 corrects blocks of sixteen pixels, in
// bias_amd64.s: each step's quantized level from saturating
// differences and four compares, each pixel's context from the levels
// of the steps either side of it, its correction looked up one byte at
// a time, and the sum clamped by a saturating pack.
//
//go:noescape
func correctBlocksSSE2(ref, above *byte, corr *[256]int8, blocks int)
