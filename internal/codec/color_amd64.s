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

// The constants of rgbBlocksAVX2, thirty-two bytes each: rgbBlocksSSE2's
// in both lanes, and the PSHUFB indices that interleave a lane's eight
// red and eight green bytes (RG) and its eight blue ones (B) into the
// first sixteen (0) and the last eight (1) of its pixels' 24 bytes, an
// index of 0x80 giving 0.
DATA rgb32Off16<>+0(SB)/8, $0x0010001000100010
DATA rgb32Off16<>+8(SB)/8, $0x0010001000100010
DATA rgb32Off16<>+16(SB)/8, $0x0010001000100010
DATA rgb32Off16<>+24(SB)/8, $0x0010001000100010
GLOBL rgb32Off16<>(SB), RODATA|NOPTR, $32
DATA rgb32Off128<>+0(SB)/8, $0x0080008000800080
DATA rgb32Off128<>+8(SB)/8, $0x0080008000800080
DATA rgb32Off128<>+16(SB)/8, $0x0080008000800080
DATA rgb32Off128<>+24(SB)/8, $0x0080008000800080
GLOBL rgb32Off128<>(SB), RODATA|NOPTR, $32
DATA rgb32Ones<>+0(SB)/8, $0x0001000100010001
DATA rgb32Ones<>+8(SB)/8, $0x0001000100010001
DATA rgb32Ones<>+16(SB)/8, $0x0001000100010001
DATA rgb32Ones<>+24(SB)/8, $0x0001000100010001
GLOBL rgb32Ones<>(SB), RODATA|NOPTR, $32
DATA rgb32KL<>+0(SB)/8, $0x0080012a0080012a
DATA rgb32KL<>+8(SB)/8, $0x0080012a0080012a
DATA rgb32KL<>+16(SB)/8, $0x0080012a0080012a
DATA rgb32KL<>+24(SB)/8, $0x0080012a0080012a
GLOBL rgb32KL<>(SB), RODATA|NOPTR, $32
DATA rgb32KR<>+0(SB)/8, $0x0000019900000199
DATA rgb32KR<>+8(SB)/8, $0x0000019900000199
DATA rgb32KR<>+16(SB)/8, $0x0000019900000199
DATA rgb32KR<>+24(SB)/8, $0x0000019900000199
GLOBL rgb32KR<>(SB), RODATA|NOPTR, $32
DATA rgb32KG<>+0(SB)/8, $0xff30ff9cff30ff9c
DATA rgb32KG<>+8(SB)/8, $0xff30ff9cff30ff9c
DATA rgb32KG<>+16(SB)/8, $0xff30ff9cff30ff9c
DATA rgb32KG<>+24(SB)/8, $0xff30ff9cff30ff9c
GLOBL rgb32KG<>(SB), RODATA|NOPTR, $32
DATA rgb32KB<>+0(SB)/8, $0x0000020400000204
DATA rgb32KB<>+8(SB)/8, $0x0000020400000204
DATA rgb32KB<>+16(SB)/8, $0x0000020400000204
DATA rgb32KB<>+24(SB)/8, $0x0000020400000204
GLOBL rgb32KB<>(SB), RODATA|NOPTR, $32
DATA rgb32RG0<>+0(SB)/8, $0x0a02800901800800
DATA rgb32RG0<>+8(SB)/8, $0x05800c04800b0380
DATA rgb32RG0<>+16(SB)/8, $0x0a02800901800800
DATA rgb32RG0<>+24(SB)/8, $0x05800c04800b0380
GLOBL rgb32RG0<>(SB), RODATA|NOPTR, $32
DATA rgb32B0<>+0(SB)/8, $0x8080018080008080
DATA rgb32B0<>+8(SB)/8, $0x8004808003808002
DATA rgb32B0<>+16(SB)/8, $0x8080018080008080
DATA rgb32B0<>+24(SB)/8, $0x8004808003808002
GLOBL rgb32B0<>(SB), RODATA|NOPTR, $32
DATA rgb32RG1<>+0(SB)/8, $0x800f07800e06800d
DATA rgb32RG1<>+8(SB)/8, $0x8080808080808080
DATA rgb32RG1<>+16(SB)/8, $0x800f07800e06800d
DATA rgb32RG1<>+24(SB)/8, $0x8080808080808080
GLOBL rgb32RG1<>(SB), RODATA|NOPTR, $32
DATA rgb32B1<>+0(SB)/8, $0x0780800680800580
DATA rgb32B1<>+8(SB)/8, $0x8080808080808080
DATA rgb32B1<>+16(SB)/8, $0x0780800680800580
DATA rgb32B1<>+24(SB)/8, $0x8080808080808080
GLOBL rgb32B1<>(SB), RODATA|NOPTR, $32

// func rgbBlocksAVX2(out, ys, us, vs *byte, blocks int)
//
// rgbBlocksSSE2 sixteen pixels a block: sixteen Y bytes, eight U and
// eight V, and 48 bytes out, written exactly. Lane 0 holds pixels 0-7
// and lane 1 pixels 8-15 from the first unpack to the last store.
TEXT ·rgbBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ    out+0(FP), DI
	MOVQ    ys+8(FP), SI
	MOVQ    us+16(FP), DX
	MOVQ    vs+24(FP), CX
	MOVQ    blocks+32(FP), BX
	VPXOR   Y0, Y0, Y0
	VMOVDQU rgb32Off16<>(SB), Y13
	VMOVDQU rgb32Off128<>(SB), Y14
	VMOVDQU rgb32Ones<>(SB), Y15

loop16:
	TESTQ BX, BX
	JZ    done16

	// Y-16 (Y1), U-128 (Y2) and V-128 (Y3), sixteen words each, a
	// chroma byte doubled for the two pixels it covers.
	VPMOVZXBW  (SI), Y1
	VPSUBW     Y13, Y1, Y1
	VMOVQ      (DX), X2
	VPUNPCKLBW X2, X2, X2
	VPMOVZXBW  X2, Y2
	VPSUBW     Y14, Y2, Y2
	VMOVQ      (CX), X3
	VPUNPCKLBW X3, X3, X3
	VPMOVZXBW  X3, Y3
	VPSUBW     Y14, Y3, Y3

	// 298(Y-16) + 128 as dwords: pixels 0-3 and 8-11 (Y4), 4-7 and
	// 12-15 (Y5).
	VPUNPCKLWD Y15, Y1, Y4
	VPMADDWD   rgb32KL<>(SB), Y4, Y4
	VPUNPCKHWD Y15, Y1, Y5
	VPMADDWD   rgb32KL<>(SB), Y5, Y5

	// Red: plus 409(V-128), shifted, sixteen words (Y6).
	VPUNPCKLWD Y0, Y3, Y6
	VPMADDWD   rgb32KR<>(SB), Y6, Y6
	VPADDD     Y4, Y6, Y6
	VPSRAD     $8, Y6, Y6
	VPUNPCKHWD Y0, Y3, Y7
	VPMADDWD   rgb32KR<>(SB), Y7, Y7
	VPADDD     Y5, Y7, Y7
	VPSRAD     $8, Y7, Y7
	VPACKSSDW  Y7, Y6, Y6

	// Green: plus -100(U-128) - 208(V-128) (Y8).
	VPUNPCKLWD Y3, Y2, Y8
	VPMADDWD   rgb32KG<>(SB), Y8, Y8
	VPADDD     Y4, Y8, Y8
	VPSRAD     $8, Y8, Y8
	VPUNPCKHWD Y3, Y2, Y9
	VPMADDWD   rgb32KG<>(SB), Y9, Y9
	VPADDD     Y5, Y9, Y9
	VPSRAD     $8, Y9, Y9
	VPACKSSDW  Y9, Y8, Y8

	// Blue: plus 516(U-128) (Y10).
	VPUNPCKLWD Y0, Y2, Y10
	VPMADDWD   rgb32KB<>(SB), Y10, Y10
	VPADDD     Y4, Y10, Y10
	VPSRAD     $8, Y10, Y10
	VPUNPCKHWD Y0, Y2, Y11
	VPMADDWD   rgb32KB<>(SB), Y11, Y11
	VPADDD     Y5, Y11, Y11
	VPSRAD     $8, Y11, Y11
	VPACKSSDW  Y11, Y10, Y10

	// Clamp to bytes: each lane r0..r7 g0..g7 (Y6) and b0..b7 twice
	// (Y10); then r g b for its eight pixels, the first sixteen bytes
	// (Y8) and the last eight (Y9).
	VPACKUSWB Y8, Y6, Y6
	VPACKUSWB Y10, Y10, Y10
	VPSHUFB   rgb32RG0<>(SB), Y6, Y8
	VPSHUFB   rgb32B0<>(SB), Y10, Y7
	VPOR      Y7, Y8, Y8
	VPSHUFB   rgb32RG1<>(SB), Y6, Y9
	VPSHUFB   rgb32B1<>(SB), Y10, Y7
	VPOR      Y7, Y9, Y9

	VMOVDQU      X8, (DI)
	VMOVQ        X9, 16(DI)
	VEXTRACTI128 $1, Y8, X8
	VEXTRACTI128 $1, Y9, X9
	VMOVDQU      X8, 24(DI)
	VMOVQ        X9, 40(DI)

	ADDQ $16, SI
	ADDQ $8, DX
	ADDQ $8, CX
	ADDQ $48, DI
	DECQ BX
	JMP  loop16

done16:
	VZEROUPPER
	RET
