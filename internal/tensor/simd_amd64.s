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
// neither read nor written, and cannot fault. A tail of at most 16
// columns keeps its sums in Y0-Y1 alone.
//
// Which p are skipped, and in what order the rest arrive, is all the
// zero-skip rule fixes; how they are found is free. avx2MulAddRows tests
// a contiguous row of a eight entries at a time and walks the survivors
// by bit scan instead of branching on each entry.

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

// MULADD32 adds Y8 times the 32 floats at ptr to the sums in Y0-Y3.
#define MULADD32(ptr) \
	VMULPS (ptr), Y8, Y9     \
	VMULPS 32(ptr), Y8, Y10  \
	VMULPS 64(ptr), Y8, Y11  \
	VMULPS 96(ptr), Y8, Y12  \
	VADDPS Y9, Y0, Y0        \
	VADDPS Y10, Y1, Y1       \
	VADDPS Y11, Y2, Y2       \
	VADDPS Y12, Y3, Y3

// MASKMULADD32 is MULADD32 on a tail tile: only the lanes the masks in
// Y4-Y7 pass are loaded.
#define MASKMULADD32(ptr) \
	VMASKMOVPS (ptr), Y4, Y9      \
	VMASKMOVPS 32(ptr), Y5, Y10   \
	VMASKMOVPS 64(ptr), Y6, Y11   \
	VMASKMOVPS 96(ptr), Y7, Y12   \
	VMULPS     Y9, Y8, Y9         \
	VMULPS     Y10, Y8, Y10       \
	VMULPS     Y11, Y8, Y11       \
	VMULPS     Y12, Y8, Y12       \
	VADDPS     Y9, Y0, Y0         \
	VADDPS     Y10, Y1, Y1        \
	VADDPS     Y11, Y2, Y2        \
	VADDPS     Y12, Y3, Y3

// MASKMULADD16 is MASKMULADD32 on the first two vectors only, with the
// sums in Y0-Y1.
#define MASKMULADD16(ptr) \
	VMASKMOVPS (ptr), Y4, Y9      \
	VMASKMOVPS 32(ptr), Y5, Y10   \
	VMULPS     Y9, Y8, Y9         \
	VMULPS     Y10, Y8, Y10       \
	VADDPS     Y9, Y0, Y0         \
	VADDPS     Y10, Y1, Y1

// STEPS8(muladd) runs muladd for the 8 a entries at R13 against the 8
// b rows from AX on, leaving AX at the row after them.
#define STEPS8(muladd) \
	VBROADCASTSS (R13), Y8    \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 4(R13), Y8   \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 8(R13), Y8   \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 12(R13), Y8  \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 16(R13), Y8  \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 20(R13), Y8  \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 24(R13), Y8  \
	muladd(AX)                \
	ADDQ         R9, AX       \
	VBROADCASTSS 28(R13), Y8  \
	muladd(AX)                \
	ADDQ         R9, AX

// func avx2MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int)
//
// For i in [0, rows): dst[i*n+j] += a[i*aRow+p*aStep] · b[p*n+j] for
// p = 0 … k-1 in order, skipping p where the a element is ±0. rows, k
// and n must be positive.
//
// When a row of a is contiguous (aStep 1), its entries are tested in
// chunks of up to 64, a whole number of 8-entry groups: per group,
// VCMPPS against zero (NEQ_UQ, so NaN counts as nonzero and ±0 does
// not) and VMOVMSKPS give one bit per entry. A chunk with every bit set
// runs unrolled 8-step bodies with no test; any other chunk visits its
// set bits lowest first (BSF, then BTR). After ReLU about half of a is
// zero at random: a branch per entry mispredicts half the time, the
// walk once per chunk. The last k mod 8 entries, and every entry of a
// strided a, take the per-entry step, which tests the bits: ADDL of the
// value to itself drops the sign bit, so only +0 and -0 give zero.
//
//	DI dst row      SI a row        BX b            R9 n·4
//	R10 p left      R11 aStep·4     DX tile offset  R13 a element
//	AX b row at tile               R8 chunk entries R12 chunk mask
//	R14, CX scratch Y13 group test  Y15 zero
//
// The rows left are counted down in the rows argument.
TEXT ·avx2MulAddRows(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVQ   n+40(FP), R9
	MOVQ   aStep+56(FP), R11
	MOVQ   R9, AX
	ANDQ   $31, AX
	LOADTAILMASKS(AX, R12)
	SHLQ   $2, R9
	SHLQ   $2, R11
	VXORPS Y15, Y15, Y15

row:
	XORQ DX, DX

tile:
	LEAQ    128(DX), R12
	CMPQ    R12, R9
	JA      tail
	VMOVUPS (DI)(DX*1), Y0
	VMOVUPS 32(DI)(DX*1), Y1
	VMOVUPS 64(DI)(DX*1), Y2
	VMOVUPS 96(DI)(DX*1), Y3
	MOVQ    SI, R13
	LEAQ    (BX)(DX*1), AX
	MOVQ    k+32(FP), R10
	CMPQ    R11, $4
	JNE     step

chunk:
	MOVQ R10, R8
	ANDQ $-8, R8
	JZ   rest
	CMPQ R8, $64
	JBE  sized
	MOVL $64, R8

// R12 gathers one bit per entry of the chunk, group by group from the
// last, so bit q stands for the entry at R13 + 4q.
sized:
	LEAQ (R13)(R8*4), CX
	XORL R12, R12

mask:
	SUBQ      $32, CX
	VCMPPS    $4, (CX), Y15, Y13
	VMOVMSKPS Y13, R14
	SHLQ      $8, R12
	ORQ       R14, R12
	CMPQ      CX, R13
	JNE       mask
	MOVQ      R8, CX // R14 = the low R8 bits, all set
	NEGQ      CX
	MOVQ      $-1, R14
	SHRQ      CX, R14
	CMPQ      R12, R14
	JNE       walk
	MOVQ      R8, CX
	SHRQ      $3, CX

dense:
	STEPS8(MULADD32)
	ADDQ $32, R13
	DECQ CX
	JNZ  dense
	SUBQ R8, R10
	JMP  chunk

walk:
	BSFQ         R12, R14
	JZ           walked
	BTRQ         R14, R12
	VBROADCASTSS (R13)(R14*4), Y8
	IMULQ        R9, R14
	ADDQ         AX, R14
	MULADD32(R14)
	JMP          walk

walked:
	LEAQ  (R13)(R8*4), R13
	MOVQ  R8, R14
	IMULQ R9, R14
	ADDQ  R14, AX
	SUBQ  R8, R10
	JMP   chunk

rest:
	TESTQ R10, R10
	JZ    store

step:
	MOVL (R13), R12
	ADDL R12, R12
	JZ   skip
	VBROADCASTSS (R13), Y8
	MULADD32(AX)

skip:
	ADDQ R11, R13
	ADDQ R9, AX
	DECQ R10
	JNZ  step

store:
	VMOVUPS Y0, (DI)(DX*1)
	VMOVUPS Y1, 32(DI)(DX*1)
	VMOVUPS Y2, 64(DI)(DX*1)
	VMOVUPS Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	JMP     tile

tail:
	CMPQ       DX, R9
	JAE        next
	LEAQ       64(DX), R12
	CMPQ       R12, R9
	JAE        narrow
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1
	VMASKMOVPS 64(DI)(DX*1), Y6, Y2
	VMASKMOVPS 96(DI)(DX*1), Y7, Y3
	MOVQ       SI, R13
	LEAQ       (BX)(DX*1), AX
	MOVQ       k+32(FP), R10
	CMPQ       R11, $4
	JNE        tstep

tchunk:
	MOVQ R10, R8
	ANDQ $-8, R8
	JZ   trest
	CMPQ R8, $64
	JBE  tsized
	MOVL $64, R8

// R12 gathers one bit per entry of the chunk, group by group from the
// last, so bit q stands for the entry at R13 + 4q.
tsized:
	LEAQ (R13)(R8*4), CX
	XORL R12, R12

tmask:
	SUBQ      $32, CX
	VCMPPS    $4, (CX), Y15, Y13
	VMOVMSKPS Y13, R14
	SHLQ      $8, R12
	ORQ       R14, R12
	CMPQ      CX, R13
	JNE       tmask
	MOVQ      R8, CX // R14 = the low R8 bits, all set
	NEGQ      CX
	MOVQ      $-1, R14
	SHRQ      CX, R14
	CMPQ      R12, R14
	JNE       twalk
	MOVQ      R8, CX
	SHRQ      $3, CX

tdense:
	STEPS8(MASKMULADD32)
	ADDQ $32, R13
	DECQ CX
	JNZ  tdense
	SUBQ R8, R10
	JMP  tchunk

twalk:
	BSFQ         R12, R14
	JZ           twalked
	BTRQ         R14, R12
	VBROADCASTSS (R13)(R14*4), Y8
	IMULQ        R9, R14
	ADDQ         AX, R14
	MASKMULADD32(R14)
	JMP          twalk

twalked:
	LEAQ  (R13)(R8*4), R13
	MOVQ  R8, R14
	IMULQ R9, R14
	ADDQ  R14, AX
	SUBQ  R8, R10
	JMP   tchunk

trest:
	TESTQ R10, R10
	JZ    tstore

tstep:
	MOVL (R13), R12
	ADDL R12, R12
	JZ   tskip
	VBROADCASTSS (R13), Y8
	MASKMULADD32(AX)

tskip:
	ADDQ R11, R13
	ADDQ R9, AX
	DECQ R10
	JNZ  tstep

tstore:
	VMASKMOVPS Y0, Y4, (DI)(DX*1)
	VMASKMOVPS Y1, Y5, 32(DI)(DX*1)
	VMASKMOVPS Y2, Y6, 64(DI)(DX*1)
	VMASKMOVPS Y3, Y7, 96(DI)(DX*1)
	JMP        next

// A tail of at most 16 columns works only the two vectors that have
// live lanes.
narrow:
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1
	MOVQ       SI, R13
	LEAQ       (BX)(DX*1), AX
	MOVQ       k+32(FP), R10
	CMPQ       R11, $4
	JNE        nstep

nchunk:
	MOVQ R10, R8
	ANDQ $-8, R8
	JZ   nrest
	CMPQ R8, $64
	JBE  nsized
	MOVL $64, R8

// R12 gathers one bit per entry of the chunk, group by group from the
// last, so bit q stands for the entry at R13 + 4q.
nsized:
	LEAQ (R13)(R8*4), CX
	XORL R12, R12

nmask:
	SUBQ      $32, CX
	VCMPPS    $4, (CX), Y15, Y13
	VMOVMSKPS Y13, R14
	SHLQ      $8, R12
	ORQ       R14, R12
	CMPQ      CX, R13
	JNE       nmask
	MOVQ      R8, CX // R14 = the low R8 bits, all set
	NEGQ      CX
	MOVQ      $-1, R14
	SHRQ      CX, R14
	CMPQ      R12, R14
	JNE       nwalk
	MOVQ      R8, CX
	SHRQ      $3, CX

ndense:
	STEPS8(MASKMULADD16)
	ADDQ $32, R13
	DECQ CX
	JNZ  ndense
	SUBQ R8, R10
	JMP  nchunk

nwalk:
	BSFQ         R12, R14
	JZ           nwalked
	BTRQ         R14, R12
	VBROADCASTSS (R13)(R14*4), Y8
	IMULQ        R9, R14
	ADDQ         AX, R14
	MASKMULADD16(R14)
	JMP          nwalk

nwalked:
	LEAQ  (R13)(R8*4), R13
	MOVQ  R8, R14
	IMULQ R9, R14
	ADDQ  R14, AX
	SUBQ  R8, R10
	JMP   nchunk

nrest:
	TESTQ R10, R10
	JZ    nstore

nstep:
	MOVL (R13), R12
	ADDL R12, R12
	JZ   nskip
	VBROADCASTSS (R13), Y8
	MASKMULADD16(AX)

nskip:
	ADDQ R11, R13
	ADDQ R9, AX
	DECQ R10
	JNZ  nstep

nstore:
	VMASKMOVPS Y0, Y4, (DI)(DX*1)
	VMASKMOVPS Y1, Y5, 32(DI)(DX*1)

next:
	ADDQ R9, DI
	MOVQ aRow+48(FP), R12
	LEAQ (SI)(R12*4), SI
	DECQ rows+24(FP)
	JNZ  row
	VZEROUPPER
	RET

// func avx2AddRows(dst, x *float32, ids *int32, count, n int, c float32)
//
// dst[j] += x[ids[q]*n+j] for q = 0 … count-1 in order, then dst[j] *=
// c on the sums still in registers. count and n must be positive and
// every id a row of x.
//
//	DI dst          SI x            BX ids          CX count
//	R9 n·4          R10 q           DX tile offset  R12 row offset
TEXT ·avx2AddRows(SB), NOSPLIT, $0-44
	VBROADCASTSS c+40(FP), Y8
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
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y2, Y2
	VMULPS  Y8, Y3, Y3
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
	VMULPS     Y8, Y0, Y0
	VMULPS     Y8, Y1, Y1
	VMULPS     Y8, Y2, Y2
	VMULPS     Y8, Y3, Y3
	VMASKMOVPS Y0, Y4, (DI)(DX*1)
	VMASKMOVPS Y1, Y5, 32(DI)(DX*1)
	VMASKMOVPS Y2, Y6, 64(DI)(DX*1)
	VMASKMOVPS Y3, Y7, 96(DI)(DX*1)

adone:
	VZEROUPPER
	RET

// func avx2AddBias(dst, bias *float32, rows, n int, relu bool)
//
// For each of rows rows of n floats from dst on: dst[j] = dst[j] +
// bias[j], and then with relu max(dst[j], +0). VMAXPS returns its second
// operand, +0, unless the first is greater, so NaN, -0 and negatives all
// become +0, as under reluMask. The last n mod 8 columns are one masked
// vector. rows and n must be positive.
//
//	DI dst row      SI bias         CX rows left    R9 n·4
//	DX column       R8 relu         Y4 tail mask    Y15 zero
TEXT ·avx2AddBias(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    bias+8(FP), SI
	MOVQ    rows+16(FP), CX
	MOVQ    n+24(FP), R9
	MOVBLZX relu+32(FP), R8
	MOVQ    R9, AX
	ANDQ    $7, AX
	NEGQ    AX
	LEAQ    tailmask<>(SB), R12
	VMOVDQU 128(R12)(AX*4), Y4
	SHLQ    $2, R9
	VXORPS  Y15, Y15, Y15

brow:
	XORQ DX, DX

bvec:
	LEAQ    32(DX), R12
	CMPQ    R12, R9
	JA      btail
	VMOVUPS (DI)(DX*1), Y0
	VADDPS  (SI)(DX*1), Y0, Y0
	TESTQ   R8, R8
	JZ      bstore
	VMAXPS  Y15, Y0, Y0

bstore:
	VMOVUPS Y0, (DI)(DX*1)
	MOVQ    R12, DX
	JMP     bvec

btail:
	CMPQ       DX, R9
	JAE        bnext
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS (SI)(DX*1), Y4, Y1
	VADDPS     Y1, Y0, Y0
	TESTQ      R8, R8
	JZ         btstore
	VMAXPS     Y15, Y0, Y0

btstore:
	VMASKMOVPS Y0, Y4, (DI)(DX*1)

bnext:
	ADDQ R9, DI
	DECQ CX
	JNZ  brow
	VZEROUPPER
	RET

// RELU8(off, v) writes one vector of a full tile: dst = grad where
// 0 < act (VCMPPS LT_OQ: false for NaN and ±0), +0 elsewhere.
#define RELU8(off, v) \
	VCMPPS  $0x11, off(R14), Y15, v \
	VANDPS  off(R13), v, v          \
	VMOVUPS v, off(AX)

// MASKRELU8(off, mask, v) is RELU8 on the lanes mask passes.
#define MASKRELU8(off, mask, v) \
	VMASKMOVPS off(R14), mask, v \
	VCMPPS     $0x11, v, Y15, v  \
	VMASKMOVPS off(R13), mask, Y12 \
	VANDPS     Y12, v, v         \
	VMASKMOVPS v, mask, off(AX)

// func avx2ReLUBackward(dst, grad, act, colSum *float32, rows, n, stride int)
//
// For the n columns from each pointer on, in rows rows stride floats
// apart: dst = grad where 0 < act and +0 elsewhere, and colSum[j] = the
// sum of dst[j] over the rows in order, from +0, each add sum + v. A
// tile of 32 columns keeps its sums in Y0-Y3 down all the rows; the
// last n mod 32 columns are one masked tile, of two vectors when it
// has at most 16. rows and n must be positive.
//
//	DI dst          SI grad         BX act          R8 colSum
//	R9 n·4          R11 stride·4    DX tile offset  R10 rows left
//	AX, R13, R14 dst, grad, act at the row
TEXT ·avx2ReLUBackward(SB), NOSPLIT, $0-56
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   act+16(FP), BX
	MOVQ   colSum+24(FP), R8
	MOVQ   n+40(FP), R9
	MOVQ   stride+48(FP), R11
	MOVQ   R9, AX
	ANDQ   $31, AX
	LOADTAILMASKS(AX, R12)
	SHLQ   $2, R9
	SHLQ   $2, R11
	VXORPS Y15, Y15, Y15
	XORQ   DX, DX

rtile:
	LEAQ   128(DX), R12
	CMPQ   R12, R9
	JA     rtail
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (DI)(DX*1), AX
	LEAQ   (SI)(DX*1), R13
	LEAQ   (BX)(DX*1), R14
	MOVQ   rows+32(FP), R10

rrow:
	RELU8(0, Y8)
	RELU8(32, Y9)
	RELU8(64, Y10)
	RELU8(96, Y11)
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y10, Y2, Y2
	VADDPS  Y11, Y3, Y3
	ADDQ    R11, AX
	ADDQ    R11, R13
	ADDQ    R11, R14
	DECQ    R10
	JNZ     rrow
	VMOVUPS Y0, (R8)(DX*1)
	VMOVUPS Y1, 32(R8)(DX*1)
	VMOVUPS Y2, 64(R8)(DX*1)
	VMOVUPS Y3, 96(R8)(DX*1)
	ADDQ    $128, DX
	JMP     rtile

rtail:
	CMPQ   DX, R9
	JAE    rdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (DI)(DX*1), AX
	LEAQ   (SI)(DX*1), R13
	LEAQ   (BX)(DX*1), R14
	MOVQ   rows+32(FP), R10
	LEAQ   64(DX), R12
	CMPQ   R12, R9
	JAE    rnarrow

rtrow:
	MASKRELU8(0, Y4, Y8)
	MASKRELU8(32, Y5, Y9)
	MASKRELU8(64, Y6, Y10)
	MASKRELU8(96, Y7, Y11)
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y10, Y2, Y2
	VADDPS Y11, Y3, Y3
	ADDQ   R11, AX
	ADDQ   R11, R13
	ADDQ   R11, R14
	DECQ   R10
	JNZ    rtrow
	VMASKMOVPS Y0, Y4, (R8)(DX*1)
	VMASKMOVPS Y1, Y5, 32(R8)(DX*1)
	VMASKMOVPS Y2, Y6, 64(R8)(DX*1)
	VMASKMOVPS Y3, Y7, 96(R8)(DX*1)
	JMP        rdone

// A tail of at most 16 columns works only the two vectors that have
// live lanes.
rnarrow:
	MASKRELU8(0, Y4, Y8)
	MASKRELU8(32, Y5, Y9)
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	ADDQ   R11, AX
	ADDQ   R11, R13
	ADDQ   R11, R14
	DECQ   R10
	JNZ    rnarrow
	VMASKMOVPS Y0, Y4, (R8)(DX*1)
	VMASKMOVPS Y1, Y5, 32(R8)(DX*1)

rdone:
	VZEROUPPER
	RET

// func avx2ScatterRows(dst, src *float32, ids *int32, count, n int, c float32)
//
// dst[ids[q]*n+j] = dst[ids[q]*n+j] + src[j]·c for q = 0 … count-1 in
// order: the mirror of avx2AddRows. A tile's products are the same for
// every row, so they are taken once, into Y0-Y3, with the operands in
// the Go loop's order. count and n must be positive, every id a row of
// dst, and src must not overlap dst.
//
//	DI dst          SI src          BX ids          CX count
//	R9 n·4          R10 q           DX tile offset  R12 row offset
//	AX dst at tile  Y8 c
TEXT ·avx2ScatterRows(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         ids+16(FP), BX
	MOVQ         count+24(FP), CX
	MOVQ         n+32(FP), R9
	VBROADCASTSS c+40(FP), Y8
	MOVQ         R9, AX
	ANDQ         $31, AX
	LOADTAILMASKS(AX, R12)
	SHLQ         $2, R9
	XORQ         DX, DX

stile:
	LEAQ    128(DX), R12
	CMPQ    R12, R9
	JA      stail
	VMOVUPS (SI)(DX*1), Y0
	VMOVUPS 32(SI)(DX*1), Y1
	VMOVUPS 64(SI)(DX*1), Y2
	VMOVUPS 96(SI)(DX*1), Y3
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y2, Y2
	VMULPS  Y8, Y3, Y3
	LEAQ    (DI)(DX*1), AX
	XORQ    R10, R10

sstep:
	MOVLQSX (BX)(R10*4), R12
	IMULQ   R9, R12
	VMOVUPS (AX)(R12*1), Y9
	VMOVUPS 32(AX)(R12*1), Y10
	VMOVUPS 64(AX)(R12*1), Y11
	VMOVUPS 96(AX)(R12*1), Y12
	VADDPS  Y0, Y9, Y9
	VADDPS  Y1, Y10, Y10
	VADDPS  Y2, Y11, Y11
	VADDPS  Y3, Y12, Y12
	VMOVUPS Y9, (AX)(R12*1)
	VMOVUPS Y10, 32(AX)(R12*1)
	VMOVUPS Y11, 64(AX)(R12*1)
	VMOVUPS Y12, 96(AX)(R12*1)
	INCQ    R10
	CMPQ    R10, CX
	JB      sstep
	ADDQ    $128, DX
	JMP     stile

stail:
	CMPQ       DX, R9
	JAE        sdone
	LEAQ       (DI)(DX*1), AX
	XORQ       R10, R10
	LEAQ       64(DX), R12
	CMPQ       R12, R9
	JAE        snarrow
	VMASKMOVPS (SI)(DX*1), Y4, Y0
	VMASKMOVPS 32(SI)(DX*1), Y5, Y1
	VMASKMOVPS 64(SI)(DX*1), Y6, Y2
	VMASKMOVPS 96(SI)(DX*1), Y7, Y3
	VMULPS     Y8, Y0, Y0
	VMULPS     Y8, Y1, Y1
	VMULPS     Y8, Y2, Y2
	VMULPS     Y8, Y3, Y3

ststep:
	MOVLQSX    (BX)(R10*4), R12
	IMULQ      R9, R12
	VMASKMOVPS (AX)(R12*1), Y4, Y9
	VMASKMOVPS 32(AX)(R12*1), Y5, Y10
	VMASKMOVPS 64(AX)(R12*1), Y6, Y11
	VMASKMOVPS 96(AX)(R12*1), Y7, Y12
	VADDPS     Y0, Y9, Y9
	VADDPS     Y1, Y10, Y10
	VADDPS     Y2, Y11, Y11
	VADDPS     Y3, Y12, Y12
	VMASKMOVPS Y9, Y4, (AX)(R12*1)
	VMASKMOVPS Y10, Y5, 32(AX)(R12*1)
	VMASKMOVPS Y11, Y6, 64(AX)(R12*1)
	VMASKMOVPS Y12, Y7, 96(AX)(R12*1)
	INCQ       R10
	CMPQ       R10, CX
	JB         ststep
	JMP        sdone

// A tail of at most 16 columns works only the two vectors that have
// live lanes.
snarrow:
	VMASKMOVPS (SI)(DX*1), Y4, Y0
	VMASKMOVPS 32(SI)(DX*1), Y5, Y1
	VMULPS     Y8, Y0, Y0
	VMULPS     Y8, Y1, Y1

snstep:
	MOVLQSX    (BX)(R10*4), R12
	IMULQ      R9, R12
	VMASKMOVPS (AX)(R12*1), Y4, Y9
	VMASKMOVPS 32(AX)(R12*1), Y5, Y10
	VADDPS     Y0, Y9, Y9
	VADDPS     Y1, Y10, Y10
	VMASKMOVPS Y9, Y4, (AX)(R12*1)
	VMASKMOVPS Y10, Y5, 32(AX)(R12*1)
	INCQ       R10
	CMPQ       R10, CX
	JB         snstep

sdone:
	VZEROUPPER
	RET
