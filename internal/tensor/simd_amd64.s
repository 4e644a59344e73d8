#include "textflag.h"

// AVX2 row loops for the multiply-accumulate kernels in ops.go. Every
// lane does what the Go loops do per element: one rounded multiply
// (VMULPS), then one rounded add (VADDPS), for ascending p. There is no
// fused multiply-add anywhere in this file; a fused one rounds once and
// would break bit equality with the portable path.
//
// A row of dst is worked on in column tiles of 32 floats held in Y0-Y3,
// so the running sums stay in registers across the whole reduction. The
// last n mod 32 columns form one more tile whose loads and stores go
// through VMASKMOVPS with the masks in Y4-Y7: a masked-out lane is
// neither read nor written, and cannot fault.

// tailmask<> is 32 all-ones dwords followed by 32 zero dwords. The eight
// dwords starting at index 32-rem+8v are the mask of vector v of a tile
// that has rem live columns.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0xffffffffffffffff
DATA tailmask<>+40(SB)/8, $0xffffffffffffffff
DATA tailmask<>+48(SB)/8, $0xffffffffffffffff
DATA tailmask<>+56(SB)/8, $0xffffffffffffffff
DATA tailmask<>+64(SB)/8, $0xffffffffffffffff
DATA tailmask<>+72(SB)/8, $0xffffffffffffffff
DATA tailmask<>+80(SB)/8, $0xffffffffffffffff
DATA tailmask<>+88(SB)/8, $0xffffffffffffffff
DATA tailmask<>+96(SB)/8, $0xffffffffffffffff
DATA tailmask<>+104(SB)/8, $0xffffffffffffffff
DATA tailmask<>+112(SB)/8, $0xffffffffffffffff
DATA tailmask<>+120(SB)/8, $0xffffffffffffffff
GLOBL tailmask<>(SB), RODATA|NOPTR, $256

// LOADTAILMASKS sets Y4-Y7 for a tail of rem columns; rem is clobbered.
#define LOADTAILMASKS(rem, tmp) \
	LEAQ    tailmask<>(SB), tmp    \
	NEGQ    rem                    \
	VMOVDQU 128(tmp)(rem*4), Y4    \
	VMOVDQU 160(tmp)(rem*4), Y5    \
	VMOVDQU 192(tmp)(rem*4), Y6    \
	VMOVDQU 224(tmp)(rem*4), Y7

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX, AVX2 and OSXSAVE, and XGETBV
// says the OS saves the XMM and YMM state.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   nope
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE  nope
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: SSE (1) and AVX (2) state enabled
	CMPL AX, $6
	JNE  nope
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX          // AVX2
	SETCS ret+0(FP)
nope:
	RET

// func avx2MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int)
//
// For i in [0, rows): dst[i*n+j] += a[i*aRow+p*aStep] · b[p*n+j] for
// p = 0 … k-1 in order, skipping p where the a element is ±0. rows, k
// and n must be positive.
//
//	DI dst row      SI a row        BX b            CX rows left
//	R8 k            R9 n·4          R10 p left      R11 aStep·4
//	DX tile offset  R12 scratch     R13 a element   AX b row at tile
TEXT ·avx2MulAddRows(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ aStep+56(FP), R11
	MOVQ R9, AX
	ANDQ $31, AX
	LOADTAILMASKS(AX, R12)
	SHLQ $2, R9
	SHLQ $2, R11

row:
	XORQ DX, DX

tile:
	LEAQ 128(DX), R12
	CMPQ R12, R9
	JA   tail
	VMOVUPS (DI)(DX*1), Y0
	VMOVUPS 32(DI)(DX*1), Y1
	VMOVUPS 64(DI)(DX*1), Y2
	VMOVUPS 96(DI)(DX*1), Y3
	MOVQ    SI, R13
	LEAQ    (BX)(DX*1), AX
	MOVQ    R8, R10

step:
	MOVL (R13), R12
	ADDL R12, R12 // drops the sign bit: zero for +0 and -0 only
	JZ   skip
	VBROADCASTSS (R13), Y8
	VMULPS (AX), Y8, Y9
	VMULPS 32(AX), Y8, Y10
	VMULPS 64(AX), Y8, Y11
	VMULPS 96(AX), Y8, Y12
	VADDPS Y9, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3

skip:
	ADDQ R11, R13
	ADDQ R9, AX
	DECQ R10
	JNZ  step
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	JMP     tile

tail:
	CMPQ DX, R9
	JAE  next
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1
	VMASKMOVPS 64(DI)(DX*1), Y6, Y2
	VMASKMOVPS 96(DI)(DX*1), Y7, Y3
	MOVQ       SI, R13
	LEAQ       (BX)(DX*1), AX
	MOVQ       R8, R10

tstep:
	MOVL (R13), R12
	ADDL R12, R12
	JZ   tskip
	VBROADCASTSS (R13), Y8
	VMASKMOVPS (AX), Y4, Y9
	VMASKMOVPS 32(AX), Y5, Y10
	VMASKMOVPS 64(AX), Y6, Y11
	VMASKMOVPS 96(AX), Y7, Y12
	VMULPS Y9, Y8, Y9
	VMULPS Y10, Y8, Y10
	VMULPS Y11, Y8, Y11
	VMULPS Y12, Y8, Y12
	VADDPS Y9, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3

tskip:
	ADDQ R11, R13
	ADDQ R9, AX
	DECQ R10
	JNZ  tstep
	VMASKMOVPS Y0, Y4, (DI)(DX*1)
	VMASKMOVPS Y1, Y5, 32(DI)(DX*1)
	VMASKMOVPS Y2, Y6, 64(DI)(DX*1)
	VMASKMOVPS Y3, Y7, 96(DI)(DX*1)

next:
	ADDQ R9, DI
	MOVQ aRow+48(FP), R12
	LEAQ (SI)(R12*4), SI
	DECQ CX
	JNZ  row
	VZEROUPPER
	RET

// func avx2AddRows(dst, x *float32, ids *int32, count, n int)
//
// dst[j] += x[ids[q]*n+j] for q = 0 … count-1 in order. count and n must
// be positive and every id a row of x.
//
//	DI dst          SI x            BX ids          CX count
//	R9 n·4          R10 q           DX tile offset  R12 row offset
TEXT ·avx2AddRows(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ids+16(FP), BX
	MOVQ count+24(FP), CX
	MOVQ n+32(FP), R9
	MOVQ R9, AX
	ANDQ $31, AX
	LOADTAILMASKS(AX, R12)
	SHLQ $2, R9
	XORQ DX, DX

atile:
	LEAQ 128(DX), R12
	CMPQ R12, R9
	JA   atail
	VMOVUPS (DI)(DX*1), Y0
	VMOVUPS 32(DI)(DX*1), Y1
	VMOVUPS 64(DI)(DX*1), Y2
	VMOVUPS 96(DI)(DX*1), Y3
	LEAQ    (SI)(DX*1), AX
	XORQ    R10, R10

astep:
	MOVLQSX (BX)(R10*4), R12
	IMULQ   R9, R12
	VADDPS  (AX)(R12*1), Y0, Y0
	VADDPS  32(AX)(R12*1), Y1, Y1
	VADDPS  64(AX)(R12*1), Y2, Y2
	VADDPS  96(AX)(R12*1), Y3, Y3
	INCQ    R10
	CMPQ    R10, CX
	JB      astep
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	JMP     atile

atail:
	CMPQ DX, R9
	JAE  adone
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1
	VMASKMOVPS 64(DI)(DX*1), Y6, Y2
	VMASKMOVPS 96(DI)(DX*1), Y7, Y3
	LEAQ       (SI)(DX*1), AX
	XORQ       R10, R10

atstep:
	MOVLQSX    (BX)(R10*4), R12
	IMULQ      R9, R12
	VMASKMOVPS (AX)(R12*1), Y4, Y9
	VMASKMOVPS 32(AX)(R12*1), Y5, Y10
	VMASKMOVPS 64(AX)(R12*1), Y6, Y11
	VMASKMOVPS 96(AX)(R12*1), Y7, Y12
	VADDPS     Y9, Y0, Y0
	VADDPS     Y10, Y1, Y1
	VADDPS     Y11, Y2, Y2
	VADDPS     Y12, Y3, Y3
	INCQ       R10
	CMPQ       R10, CX
	JB         atstep
	VMASKMOVPS Y0, Y4, (DI)(DX*1)
	VMASKMOVPS Y1, Y5, 32(DI)(DX*1)
	VMASKMOVPS Y2, Y6, 64(DI)(DX*1)
	VMASKMOVPS Y3, Y7, 96(DI)(DX*1)

adone:
	VZEROUPPER
	RET
