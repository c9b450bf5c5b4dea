#include "textflag.h"

// The constants of correctBlocksSSSE3, sixteen bytes each: the step
// thresholds 1, 3, 7 and 21, the level of a step of 0, and the two
// steps of the table walk.
DATA biasT1<>+0(SB)/8, $0x0101010101010101
DATA biasT1<>+8(SB)/8, $0x0101010101010101
GLOBL biasT1<>(SB), RODATA|NOPTR, $16
DATA biasT3<>+0(SB)/8, $0x0303030303030303
DATA biasT3<>+8(SB)/8, $0x0303030303030303
GLOBL biasT3<>(SB), RODATA|NOPTR, $16
DATA biasT7<>+0(SB)/8, $0x0707070707070707
DATA biasT7<>+8(SB)/8, $0x0707070707070707
GLOBL biasT7<>(SB), RODATA|NOPTR, $16
DATA biasT21<>+0(SB)/8, $0x1515151515151515
DATA biasT21<>+8(SB)/8, $0x1515151515151515
GLOBL biasT21<>(SB), RODATA|NOPTR, $16
DATA biasFour<>+0(SB)/8, $0x0404040404040404
DATA biasFour<>+8(SB)/8, $0x0404040404040404
GLOBL biasFour<>(SB), RODATA|NOPTR, $16
DATA biasHigh<>+0(SB)/8, $0x7070707070707070
DATA biasHigh<>+8(SB)/8, $0x7070707070707070
GLOBL biasHigh<>(SB), RODATA|NOPTR, $16
DATA biasSixteen<>+0(SB)/8, $0x1010101010101010
DATA biasSixteen<>+8(SB)/8, $0x1010101010101010
GLOBL biasSixteen<>(SB), RODATA|NOPTR, $16

// The same constants, thirty-two bytes each, for correctBlocksAVX2.
DATA bias32T1<>+0(SB)/8, $0x0101010101010101
DATA bias32T1<>+8(SB)/8, $0x0101010101010101
DATA bias32T1<>+16(SB)/8, $0x0101010101010101
DATA bias32T1<>+24(SB)/8, $0x0101010101010101
GLOBL bias32T1<>(SB), RODATA|NOPTR, $32
DATA bias32T3<>+0(SB)/8, $0x0303030303030303
DATA bias32T3<>+8(SB)/8, $0x0303030303030303
DATA bias32T3<>+16(SB)/8, $0x0303030303030303
DATA bias32T3<>+24(SB)/8, $0x0303030303030303
GLOBL bias32T3<>(SB), RODATA|NOPTR, $32
DATA bias32T7<>+0(SB)/8, $0x0707070707070707
DATA bias32T7<>+8(SB)/8, $0x0707070707070707
DATA bias32T7<>+16(SB)/8, $0x0707070707070707
DATA bias32T7<>+24(SB)/8, $0x0707070707070707
GLOBL bias32T7<>(SB), RODATA|NOPTR, $32
DATA bias32T21<>+0(SB)/8, $0x1515151515151515
DATA bias32T21<>+8(SB)/8, $0x1515151515151515
DATA bias32T21<>+16(SB)/8, $0x1515151515151515
DATA bias32T21<>+24(SB)/8, $0x1515151515151515
GLOBL bias32T21<>(SB), RODATA|NOPTR, $32
DATA bias32Four<>+0(SB)/8, $0x0404040404040404
DATA bias32Four<>+8(SB)/8, $0x0404040404040404
DATA bias32Four<>+16(SB)/8, $0x0404040404040404
DATA bias32Four<>+24(SB)/8, $0x0404040404040404
GLOBL bias32Four<>(SB), RODATA|NOPTR, $32
DATA bias32High<>+0(SB)/8, $0x7070707070707070
DATA bias32High<>+8(SB)/8, $0x7070707070707070
DATA bias32High<>+16(SB)/8, $0x7070707070707070
DATA bias32High<>+24(SB)/8, $0x7070707070707070
GLOBL bias32High<>(SB), RODATA|NOPTR, $32
DATA bias32Sixteen<>+0(SB)/8, $0x1010101010101010
DATA bias32Sixteen<>+8(SB)/8, $0x1010101010101010
DATA bias32Sixteen<>+16(SB)/8, $0x1010101010101010
DATA bias32Sixteen<>+24(SB)/8, $0x1010101010101010
GLOBL bias32Sixteen<>(SB), RODATA|NOPTR, $32

// LEVEL sets X6 to the quantized levels of the steps hi-lo, sixteen
// bytes: 4 + sign(d)·(|d|≥1 + |d|≥3 + |d|≥7 + |d|≥21). It uses X7-X9.
// |d| is the OR of the two saturating differences; each compare is
// min(|d|, t) = t, 0xff (-1) where it holds, so their sum is -level,
// negated where hi-lo is not below 0.
#define LEVEL(hi, lo) \
	MOVO    hi, X6 \
	PSUBUSB lo, X6 \
	MOVO    lo, X7 \
	PSUBUSB hi, X7 \
	MOVO    X6, X8 \
	POR     X7, X8 \
	MOVO    X8, X6 \
	PMINUB  X10, X6 \
	PCMPEQB X10, X6 \
	MOVO    X8, X9 \
	PMINUB  X11, X9 \
	PCMPEQB X11, X9 \
	PADDB   X9, X6 \
	MOVO    X8, X9 \
	PMINUB  X12, X9 \
	PCMPEQB X12, X9 \
	PADDB   X9, X6 \
	MOVO    X8, X9 \
	PMINUB  X13, X9 \
	PCMPEQB X13, X9 \
	PADDB   X9, X6 \
	PCMPEQB X0, X7 \
	PXOR    X7, X6 \
	PSUBB   X7, X6 \
	PADDB   X14, X6

// LOOKUP ORs into X9 the corrections of table t, corr[16t:16t+16], at
// the contexts less 16t in X8, then steps X8 to the next table. A
// context less 16t is in [0, 16) for its own table, with 0x70 added
// (saturating) still below 0x80, and PSHUFB looks up its low nibble;
// for every other table it is at least 16, or wrapped below 0, and
// with 0x70 added at least 0x80, where PSHUFB gives 0.
#define LOOKUP(t) \
	MOVO    X8, X3 \
	PADDUSB biasHigh<>(SB), X3 \
	MOVOU   (16*t)(DX), X7 \
	PSHUFB  X3, X7 \
	POR     X7, X9 \
	PSUBB   biasSixteen<>(SB), X8

// func correctBlocksSSSE3(ref, above *byte, corr *[256]int8, blocks int, left uint64)
//
// Each block is the sixteen pixels from ref[0] and above[1] on; it
// reads above[1] to above[17]. left is the level of the step before
// the first block's first pixel, above[1]-above[0]; each block's steps
// to the right are levelled once, and are the next pixels' steps to
// the left. A context, 9·right + left, is at most 80, and its
// correction is looked up in the six sixteen-byte tables corr[0:96]
// holds, one PSHUFB each.
TEXT ·correctBlocksSSSE3(SB), NOSPLIT, $0-40
	MOVQ ref+0(FP), DI
	MOVQ above+8(FP), SI
	MOVQ corr+16(FP), DX
	MOVQ blocks+24(FP), CX
	MOVQ left+32(FP), X4
	PXOR X0, X0
	MOVOU biasT1<>(SB), X10
	MOVOU biasT3<>(SB), X11
	MOVOU biasT7<>(SB), X12
	MOVOU biasT21<>(SB), X13
	MOVOU biasFour<>(SB), X14

loop:
	TESTQ CX, CX
	JZ    done

	// The pixels (X2) and their right neighbours (X3); the levels of
	// the steps to their right (X6), and to their left (X5): those
	// shifted a byte on, after the level carried from the block
	// before (X4), which then carries this block's last.
	MOVOU 1(SI), X2
	MOVOU 2(SI), X3
	LEVEL(X3, X2)
	MOVO  X6, X5
	PSLLO $1, X5
	POR   X4, X5
	MOVO  X6, X4
	PSRLO $15, X4

	// Each context, 9·right + left.
	MOVO  X6, X8
	PSLLW $3, X8
	PADDB X6, X8
	PADDB X5, X8
	PXOR  X9, X9
	LOOKUP(0)
	LOOKUP(1)
	LOOKUP(2)
	LOOKUP(3)
	LOOKUP(4)
	LOOKUP(5)

	// Pixel plus correction as words, the correction sign-extended
	// (its byte doubled, then shifted down arithmetically), packed
	// back with unsigned saturation: the clamp to [0, 255].
	MOVO      X2, X8
	PUNPCKLBW X0, X8
	MOVO      X9, X7
	PUNPCKLBW X7, X7
	PSRAW     $8, X7
	PADDW     X7, X8
	MOVO      X2, X6
	PUNPCKHBW X0, X6
	PUNPCKHBW X9, X9
	PSRAW     $8, X9
	PADDW     X9, X6
	PACKUSWB  X6, X8
	MOVOU     X8, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JMP  loop

done:
	RET

// LEVEL32 is LEVEL on thirty-two bytes: it sets Y6 to the levels of
// the steps hi-lo, and uses Y7-Y9 and the thresholds in Y10-Y14.
#define LEVEL32(hi, lo) \
	VPSUBUSB lo, hi, Y6 \
	VPSUBUSB hi, lo, Y7 \
	VPOR     Y7, Y6, Y8 \
	VPMINUB  Y10, Y8, Y6 \
	VPCMPEQB Y10, Y6, Y6 \
	VPMINUB  Y11, Y8, Y9 \
	VPCMPEQB Y11, Y9, Y9 \
	VPADDB   Y9, Y6, Y6 \
	VPMINUB  Y12, Y8, Y9 \
	VPCMPEQB Y12, Y9, Y9 \
	VPADDB   Y9, Y6, Y6 \
	VPMINUB  Y13, Y8, Y9 \
	VPCMPEQB Y13, Y9, Y9 \
	VPADDB   Y9, Y6, Y6 \
	VPCMPEQB Y0, Y7, Y7 \
	VPXOR    Y7, Y6, Y6 \
	VPSUBB   Y7, Y6, Y6 \
	VPADDB   Y14, Y6, Y6

// LOOKUP32 is LOOKUP on thirty-two contexts, Y8 to Y9, the table
// broadcast to both lanes, which PSHUFB looks up in one at a time.
#define LOOKUP32(t) \
	VPADDUSB       bias32High<>(SB), Y8, Y3 \
	VBROADCASTI128 (16*t)(DX), Y7 \
	VPSHUFB        Y3, Y7, Y7 \
	VPOR           Y7, Y9, Y9 \
	VPSUBB         bias32Sixteen<>(SB), Y8, Y8

// func correctBlocksAVX2(ref, above *byte, corr *[256]int8, blocks int)
//
// correctBlocksSSSE3 thirty-two pixels a block, from ref[0] and
// above[1] on, reading above[0] to above[33]: each block levels its
// steps to the left and to the right in one pass each, and its two
// lanes unpack and pack back in place.
TEXT ·correctBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ    ref+0(FP), DI
	MOVQ    above+8(FP), SI
	MOVQ    corr+16(FP), DX
	MOVQ    blocks+24(FP), CX
	VPXOR   Y0, Y0, Y0
	VMOVDQU bias32T1<>(SB), Y10
	VMOVDQU bias32T3<>(SB), Y11
	VMOVDQU bias32T7<>(SB), Y12
	VMOVDQU bias32T21<>(SB), Y13
	VMOVDQU bias32Four<>(SB), Y14

loop32:
	TESTQ CX, CX
	JZ    done32

	// The pixels' left neighbours (Y1), the pixels (Y2) and their
	// right neighbours (Y3); the levels of the steps to their left
	// (Y4) and right (Y5); each context, 9·right + left (Y8).
	VMOVDQU (SI), Y1
	VMOVDQU 1(SI), Y2
	VMOVDQU 2(SI), Y3
	LEVEL32(Y2, Y1)
	VMOVDQA Y6, Y4
	LEVEL32(Y3, Y2)
	VPSLLW  $3, Y6, Y8
	VPADDB  Y6, Y8, Y8
	VPADDB  Y4, Y8, Y8
	VPXOR   Y9, Y9, Y9
	LOOKUP32(0)
	LOOKUP32(1)
	LOOKUP32(2)
	LOOKUP32(3)
	LOOKUP32(4)
	LOOKUP32(5)

	// Pixel plus sign-extended correction as words, packed back with
	// unsigned saturation, lane by lane.
	VPUNPCKLBW Y0, Y2, Y8
	VPUNPCKLBW Y9, Y9, Y7
	VPSRAW     $8, Y7, Y7
	VPADDW     Y7, Y8, Y8
	VPUNPCKHBW Y0, Y2, Y6
	VPUNPCKHBW Y9, Y9, Y7
	VPSRAW     $8, Y7, Y7
	VPADDW     Y7, Y6, Y6
	VPACKUSWB  Y6, Y8, Y8
	VMOVDQU    Y8, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JMP  loop32

done32:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
