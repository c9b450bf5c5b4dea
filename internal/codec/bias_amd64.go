package codec

// correctBlocks corrects pixels 1 to n-2 of ref, n = len(above), from
// above through the vector kernels, as correct does one at a time, and
// returns n-1, the pixel after them, or 0 where the row is too short
// for a block or the processor has no SSSE3. A block reads one pixel
// either side of its own, so pixel 0 and the last are never in one.
// The blocks run from pixel 1, thirty-two pixels a block with AVX2 and
// then sixteen, and what they leave short of n-1 is taken by one more
// block ending there, which corrects some pixels again, to the same
// values.
func correctBlocks(ref, above []byte, corr *[256]int8) int {
	n := len(above)
	if n-2 < 16 || !hasSSSE3 {
		return 0
	}
	_ = ref[n-1]
	x := 1
	if m := (n - 2) / 32; hasAVX2 && m > 0 {
		correctBlocksAVX2(&ref[1], &above[0], corr, m)
		x += 32 * m
	}
	if m := (n - 1 - x) / 16; m > 0 {
		correctBlocksSSSE3(&ref[x], &above[x-1], corr, m, leftLevel(above, x))
		x += 16 * m
	}
	if x < n-1 {
		correctBlocksSSSE3(&ref[n-17], &above[n-18], corr, 1, leftLevel(above, n-17))
	}
	return n - 1
}

// leftLevel is the level of the step before pixel x of above.
func leftLevel(above []byte, x int) uint64 {
	return uint64(stepLevel[int(above[x])-int(above[x-1])+255])
}

// hasSSSE3 reports whether the processor has SSSE3 (CPUID leaf 1, ECX
// bit 9), whose PSHUFB the kernels look corrections up with; hasAVX2
// whether it has AVX2 (leaf 7, EBX bit 5) and the system saves the
// YMM registers (leaf 1, ECX bit 27, and XCR0 bits 1 and 2).
var hasSSSE3, hasAVX2 = func() (bool, bool) {
	_, _, c1, _ := cpuid(1, 0)
	ssse3 := c1&(1<<9) != 0
	if c1&(1<<27) == 0 || xgetbv0()&6 != 6 {
		return ssse3, false
	}
	_, b7, _, _ := cpuid(7, 0)
	return ssse3, ssse3 && b7&(1<<5) != 0
}()

// correctBlocksSSSE3 corrects blocks of sixteen pixels, in
// bias_amd64.s: each step's quantized level from saturating
// differences and four compares, once a step, each pixel's context
// from the levels of the steps either side of it, its correction
// looked up in six PSHUFB tables, and the sum clamped by a saturating
// pack.
//
//go:noescape
func correctBlocksSSSE3(ref, above *byte, corr *[256]int8, blocks int, left uint64)

// correctBlocksAVX2 is correctBlocksSSSE3 for blocks of thirty-two
// pixels, in bias_amd64.s.
//
//go:noescape
func correctBlocksAVX2(ref, above *byte, corr *[256]int8, blocks int)

// cpuid returns the registers CPUID leaves for leaf and sub-leaf sub,
// and xgetbv0 XCR0's low half, in bias_amd64.s.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv0() uint32
