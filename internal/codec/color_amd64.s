#include "textflag.h"

// The constants of rgbBlocksSSE2, eight 16-bit words each: the luma and
// chroma offsets, 1, and the transform's coefficient pairs as PMADDWD
// multiplies them; then the two masks that drop a pixel's fourth byte.
DATA rgbOff16<>+0(SB)/8, $0x0010001000100010
DATA rgbOff16<>+8(SB)/8, $0x0010001000100010
GLOBL rgbOff16<>(SB), RODATA|NOPTR, $16
DATA rgbOff128<>+0(SB)/8, $0x0080008000800080
DATA rgbOff128<>+8(SB)/8, $0x0080008000800080
GLOBL rgbOff128<>(SB), RODATA|NOPTR, $16
DATA rgbOnes<>+0(SB)/8, $0x0001000100010001
DATA rgbOnes<>+8(SB)/8, $0x0001000100010001
GLOBL rgbOnes<>(SB), RODATA|NOPTR, $16
DATA rgbKL<>+0(SB)/8, $0x0080012a0080012a // (298, 128)
DATA rgbKL<>+8(SB)/8, $0x0080012a0080012a
GLOBL rgbKL<>(SB), RODATA|NOPTR, $16
DATA rgbKR<>+0(SB)/8, $0x0000019900000199 // (409, 0)
DATA rgbKR<>+8(SB)/8, $0x0000019900000199
GLOBL rgbKR<>(SB), RODATA|NOPTR, $16
DATA rgbKG<>+0(SB)/8, $0xff30ff9cff30ff9c // (-100, -208)
DATA rgbKG<>+8(SB)/8, $0xff30ff9cff30ff9c
GLOBL rgbKG<>(SB), RODATA|NOPTR, $16
DATA rgbKB<>+0(SB)/8, $0x0000020400000204 // (516, 0)
DATA rgbKB<>+8(SB)/8, $0x0000020400000204
GLOBL rgbKB<>(SB), RODATA|NOPTR, $16
DATA rgbLow24<>+0(SB)/8, $0x0000000000ffffff
DATA rgbLow24<>+8(SB)/8, $0x0000000000ffffff
GLOBL rgbLow24<>(SB), RODATA|NOPTR, $16
DATA rgbMid24<>+0(SB)/8, $0x0000ffffff000000
DATA rgbMid24<>+8(SB)/8, $0x0000ffffff000000
GLOBL rgbMid24<>(SB), RODATA|NOPTR, $16

// func rgbBlocksSSE2(out, ys, us, vs *byte, blocks int)
//
// Each block is eight pixels: eight Y bytes, four U and four V, and 24
// bytes out, written as four 8-byte stores 6 bytes apart, so the last
// writes 2 bytes past the block. Constants are loaded unaligned, into a
// register, before each use.
TEXT ·rgbBlocksSSE2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ ys+8(FP), SI
	MOVQ us+16(FP), DX
	MOVQ vs+24(FP), CX
	MOVQ blocks+32(FP), BX
	PXOR X0, X0
	MOVOU rgbOff16<>(SB), X13
	MOVOU rgbOff128<>(SB), X14

loop:
	TESTQ BX, BX
	JZ    done

	// Y-16 in X1, U-128 in X2 and V-128 in X3, eight words each: a
	// chroma byte is doubled first, for the two pixels it covers.
	MOVQ      (SI), X1
	PUNPCKLBW X0, X1
	PSUBW     X13, X1
	MOVL      (DX), X2
	PUNPCKLBW X2, X2
	PUNPCKLBW X0, X2
	PSUBW     X14, X2
	MOVL      (CX), X3
	PUNPCKLBW X3, X3
	PUNPCKLBW X0, X3
	PSUBW     X14, X3

	// 298(Y-16) + 128 as four dwords for pixels 0-3 (X4) and 4-7 (X5):
	// the words (Y-16, 1) times (298, 128).
	MOVOU     rgbOnes<>(SB), X12
	MOVO      X1, X4
	PUNPCKLWL X12, X4
	MOVO      X1, X5
	PUNPCKHWL X12, X5
	MOVOU     rgbKL<>(SB), X12
	PMADDWL   X12, X4
	PMADDWL   X12, X5

	// Red: plus 409(V-128), shifted, eight words in X6.
	MOVO      X3, X6
	PUNPCKLWL X0, X6
	MOVO      X3, X7
	PUNPCKHWL X0, X7
	MOVOU     rgbKR<>(SB), X12
	PMADDWL   X12, X6
	PMADDWL   X12, X7
	PADDL     X4, X6
	PADDL     X5, X7
	PSRAL     $8, X6
	PSRAL     $8, X7
	PACKSSLW  X7, X6

	// Green: plus -100(U-128) - 208(V-128), eight words in X8.
	MOVO      X2, X8
	PUNPCKLWL X3, X8
	MOVO      X2, X9
	PUNPCKHWL X3, X9
	MOVOU     rgbKG<>(SB), X12
	PMADDWL   X12, X8
	PMADDWL   X12, X9
	PADDL     X4, X8
	PADDL     X5, X9
	PSRAL     $8, X8
	PSRAL     $8, X9
	PACKSSLW  X9, X8

	// Blue: plus 516(U-128), eight words in X10.
	MOVO      X2, X10
	PUNPCKLWL X0, X10
	MOVO      X2, X11
	PUNPCKHWL X0, X11
	MOVOU     rgbKB<>(SB), X12
	PMADDWL   X12, X10
	PMADDWL   X12, X11
	PADDL     X4, X10
	PADDL     X5, X11
	PSRAL     $8, X10
	PSRAL     $8, X11
	PACKSSLW  X11, X10

	// Clamp to bytes (unsigned saturation): X6 = r0..r7 g0..g7,
	// X10 = b0..b7 b0..b7.
	PACKUSWB X8, X6
	PACKUSWB X10, X10

	// Interleave: r g r g ... with b 0 b 0 ... gives r g b 0 per pixel,
	// pixels 0-3 in X1 and 4-7 in X6.
	MOVO      X6, X12
	PSRLO     $8, X12
	PUNPCKLBW X12, X6
	PUNPCKLBW X0, X10
	MOVO      X6, X1
	PUNPCKLWL X10, X1
	PUNPCKHWL X10, X6

	// In each quadword, r g b 0 r g b 0 becomes r g b r g b 0 0.
	MOVOU rgbMid24<>(SB), X12
	MOVO  X1, X2
	PSRLQ $8, X2
	PAND  X12, X2
	MOVO  X6, X3
	PSRLQ $8, X3
	PAND  X12, X3
	MOVOU rgbLow24<>(SB), X12
	PAND  X12, X1
	POR   X2, X1
	PAND  X12, X6
	POR   X3, X6

	MOVQ  X1, (DI)
	PSRLO $8, X1
	MOVQ  X1, 6(DI)
	MOVQ  X6, 12(DI)
	PSRLO $8, X6
	MOVQ  X6, 18(DI)

	ADDQ $8, SI
	ADDQ $4, DX
	ADDQ $4, CX
	ADDQ $24, DI
	DECQ BX
	JMP  loop

done:
	RET
