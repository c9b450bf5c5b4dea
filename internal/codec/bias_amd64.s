#include "textflag.h"

// The constants of correctBlocksSSE2, sixteen bytes each: the step
// thresholds 1, 3, 7 and 21, and the level of a step of 0.
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

// GATHER ORs the correction of the context at i(SP) into byte b of r,
// a register the first of its eight gathers (b = 0) sets.
#define GATHER(i, b, r) \
	MOVBLZX i(SP), AX \
	MOVBQZX (DX)(AX*1), BX \
	SHLQ    $(8*b), BX \
	ORQ     BX, r

// func correctBlocksSSE2(ref, above *byte, corr *[256]int8, blocks int)
//
// Each block is the sixteen pixels from ref[0] and above[1] on; it
// reads above[0] to above[17]. The contexts pass through the 16 bytes
// of the frame, and their corrections through R8 and R9, eight each: a
// vector load of sixteen byte stores would wait for them all to land.
TEXT ·correctBlocksSSE2(SB), NOSPLIT, $16-32
	MOVQ ref+0(FP), DI
	MOVQ above+8(FP), SI
	MOVQ corr+16(FP), DX
	MOVQ blocks+24(FP), CX
	PXOR X0, X0
	MOVOU biasT1<>(SB), X10
	MOVOU biasT3<>(SB), X11
	MOVOU biasT7<>(SB), X12
	MOVOU biasT21<>(SB), X13
	MOVOU biasFour<>(SB), X14

loop:
	TESTQ CX, CX
	JZ    done

	// The pixels (X2), their left neighbours (X1) and their right
	// ones (X3); the levels of the steps to their left (X4) and to
	// their right (X5); and each context, 9·right + left.
	MOVOU (SI), X1
	MOVOU 1(SI), X2
	MOVOU 2(SI), X3
	LEVEL(X2, X1)
	MOVO  X6, X4
	LEVEL(X3, X2)
	MOVO  X6, X5
	PSLLW $3, X6
	PADDB X5, X6
	PADDB X4, X6
	MOVOU X6, (SP)

	XORQ R8, R8
	XORQ R9, R9
	GATHER(0, 0, R8)
	GATHER(1, 1, R8)
	GATHER(2, 2, R8)
	GATHER(3, 3, R8)
	GATHER(4, 4, R8)
	GATHER(5, 5, R8)
	GATHER(6, 6, R8)
	GATHER(7, 7, R8)
	GATHER(8, 0, R9)
	GATHER(9, 1, R9)
	GATHER(10, 2, R9)
	GATHER(11, 3, R9)
	GATHER(12, 4, R9)
	GATHER(13, 5, R9)
	GATHER(14, 6, R9)
	GATHER(15, 7, R9)
	MOVQ       R8, X7
	MOVQ       R9, X9
	PUNPCKLQDQ X9, X7

	// Pixel plus correction as words, the correction sign-extended
	// (its byte doubled, then shifted down arithmetically), packed
	// back with unsigned saturation: the clamp to [0, 255].
	MOVO      X2, X8
	PUNPCKLBW X0, X8
	MOVO      X7, X9
	PUNPCKLBW X9, X9
	PSRAW     $8, X9
	PADDW     X9, X8
	MOVO      X2, X6
	PUNPCKHBW X0, X6
	PUNPCKHBW X7, X7
	PSRAW     $8, X7
	PADDW     X7, X6
	PACKUSWB  X6, X8
	MOVOU     X8, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JMP  loop

done:
	RET
