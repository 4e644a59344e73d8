#include "textflag.h"

// AVX2 row loops for the multiply-accumulate kernels in ops.go, and an
// AVX-512 twin of the dense one. Every lane does what the Go loops do
// per element: one rounded multiply (VMULPS), then one rounded add
// (VADDPS), for ascending p. There is no fused multiply-add anywhere in
// this file; a fused one rounds once and would break bit equality with
// the portable path. Nor is there embedded rounding or SAE.
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
// by bit scan instead of branching on each entry. avx512MulAddRows does
// not branch at all: it adds every product under a mask that is clear
// where a is ±0, and a masked-out lane of a merge-masked VADDPS keeps
// its sum's bits exactly, −0 included, whatever the product was (NaN
// from 0·Inf, say). That is what a skip leaves behind.
//
// NaN payloads match between the two: both multiply as a·b, with a's
// broadcast as the first source, and add as sum + product.

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

// func cpuFeatures() (avx2, avx512 bool)
//
// Both need CPUID's OSXSAVE and AVX, and XGETBV's XCR0 to say the OS
// saves the state the registers use. AVX2 is usable with the XMM and
// YMM state (XCR0 bits 1 and 2) and leaf 7's AVX2 bit; AVX-512F also
// needs the opmask and both ZMM halves (bits 5, 6 and 7) and leaf 7's
// AVX512F bit.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, avx512+1(FP)
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
	MOVL AX, R8          // XCR0
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL R8, CX
	ANDL $6, CX          // SSE (1) and AVX (2) state enabled
	CMPL CX, $6
	JNE  nope
	BTL  $5, BX          // AVX2
	SETCS avx2+0(FP)
	ANDL $0xe6, R8       // and opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7)
	CMPL R8, $0xe6
	JNE  nope
	BTL  $16, BX         // AVX512F
	SETCS avx512+1(FP)
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

// func avx2MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int, zero bool)
//
// For i in [0, rows): dst[i*n+j] += a[i*aRow+p*aStep] · b[p*n+j] for
// p = 0 … k-1 in order, skipping p where the a element is ±0. rows, k
// and n must be positive. With zero the sums start from +0 instead of
// from dst, which is then only written.
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
TEXT ·avx2MulAddRows(SB), NOSPLIT, $0-65
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
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	CMPB    zero+64(FP), $0
	JNE     sums
	VMOVUPS (DI)(DX*1), Y0
	VMOVUPS 32(DI)(DX*1), Y1
	VMOVUPS 64(DI)(DX*1), Y2
	VMOVUPS 96(DI)(DX*1), Y3

sums:
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
	VXORPS     Y0, Y0, Y0
	VXORPS     Y1, Y1, Y1
	VXORPS     Y2, Y2, Y2
	VXORPS     Y3, Y3, Y3
	CMPB       zero+64(FP), $0
	JNE        tsums
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1
	VMASKMOVPS 64(DI)(DX*1), Y6, Y2
	VMASKMOVPS 96(DI)(DX*1), Y7, Y3

tsums:
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
	VXORPS     Y0, Y0, Y0
	VXORPS     Y1, Y1, Y1
	CMPB       zero+64(FP), $0
	JNE        nsums
	VMASKMOVPS (DI)(DX*1), Y4, Y0
	VMASKMOVPS 32(DI)(DX*1), Y5, Y1

nsums:
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

// func avx512MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int, zero bool)
//
// avx2MulAddRows in ZMM registers, four dst rows at a time: the same
// contract and the same sums, in the same order, bit for bit. It uses
// K1-K7 only (K0 means no mask) and leaves R15 alone. A 32-column tile of a row is
// Z0-Z1, Z2-Z3, Z4-Z5 or Z6-Z7, so one pass holds 8 sums. Per p it loads
// b's two vectors once for the four rows, broadcasts the four a
// entries, compares each with zero into K1-K4 (NEQ_UQ: NaN counts as
// nonzero, ±0 does not), multiplies, and adds under those masks. Nothing
// branches on a zero, so a half-zero a costs what a dense one does.
//
// Every tile's loads and stores go through K5-K6: all ones on a whole
// tile, the live columns on the last n mod 32. A masked-out lane is
// neither read nor written and cannot fault. When fewer than four rows
// are left, the missing rows repeat the last one: they read the same a
// and dst and store the same bits to the same row.
//
//	DI dst row      SI a row        BX b            R9 n·4
//	R10 p left      R11 aStep·4     DX tile offset  R13 a element
//	AX b row at tile                R8, R12, R14 a rows 1-3 from R13
//	CX scratch      Z31 zero        d1-d3 dst rows 1-3 from DI
TEXT ·avx512MulAddRows(SB), NOSPLIT, $24-65
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), BX
	MOVQ   n+40(FP), R9
	MOVQ   aStep+56(FP), R11
	SHLQ   $2, R9
	SHLQ   $2, R11
	VPXORD Z31, Z31, Z31

// Row i of the group is row min(i, rows left - 1).
group:
	MOVQ    rows+24(FP), CX
	DECQ    CX
	MOVL    $1, R8
	CMPQ    CX, R8
	CMOVQLT CX, R8
	MOVL    $2, R12
	CMPQ    CX, R12
	CMOVQLT CX, R12
	MOVL    $3, R14
	CMPQ    CX, R14
	CMOVQLT CX, R14
	MOVQ    R8, CX
	IMULQ   R9, CX
	MOVQ    CX, d1-8(SP)
	MOVQ    R12, CX
	IMULQ   R9, CX
	MOVQ    CX, d2-16(SP)
	MOVQ    R14, CX
	IMULQ   R9, CX
	MOVQ    CX, d3-24(SP)
	MOVQ    aRow+48(FP), CX
	SHLQ    $2, CX
	IMULQ   CX, R8
	IMULQ   CX, R12
	IMULQ   CX, R14
	XORQ    DX, DX

// K5-K6 pass the first min(32, columns left) lanes of the tile.
tile:
	MOVQ  R9, CX
	SUBQ  DX, CX
	SHRQ  $2, CX
	MOVL  $-1, R10
	CMPQ  CX, $32
	JAE   masked
	MOVL  $1, R10
	SHLL  CX, R10
	DECL  R10

masked:
	KMOVW R10, K5
	SHRL  $16, R10
	KMOVW R10, K6
	LEAQ  (DI)(DX*1), CX
	CMPB  zero+64(FP), $0
	JNE   fresh
	VMOVUPS.Z (CX), K5, Z0
	VMOVUPS.Z 64(CX), K6, Z1
	MOVQ      d1-8(SP), R10
	VMOVUPS.Z (CX)(R10*1), K5, Z2
	VMOVUPS.Z 64(CX)(R10*1), K6, Z3
	MOVQ      d2-16(SP), R10
	VMOVUPS.Z (CX)(R10*1), K5, Z4
	VMOVUPS.Z 64(CX)(R10*1), K6, Z5
	MOVQ      d3-24(SP), R10
	VMOVUPS.Z (CX)(R10*1), K5, Z6
	VMOVUPS.Z 64(CX)(R10*1), K6, Z7
	JMP       sums

fresh:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

sums:
	MOVQ SI, R13
	LEAQ (BX)(DX*1), AX
	MOVQ k+32(FP), R10

step:
	VMOVUPS.Z    (AX), K5, Z8
	VMOVUPS.Z    64(AX), K6, Z9
	VBROADCASTSS (R13), Z10
	VBROADCASTSS (R13)(R8*1), Z11
	VBROADCASTSS (R13)(R12*1), Z12
	VBROADCASTSS (R13)(R14*1), Z13
	VCMPPS       $4, Z31, Z10, K1
	VCMPPS       $4, Z31, Z11, K2
	VCMPPS       $4, Z31, Z12, K3
	VCMPPS       $4, Z31, Z13, K4
	VMULPS       Z8, Z10, Z14
	VMULPS       Z9, Z10, Z15
	VMULPS       Z8, Z11, Z16
	VMULPS       Z9, Z11, Z17
	VMULPS       Z8, Z12, Z18
	VMULPS       Z9, Z12, Z19
	VMULPS       Z8, Z13, Z20
	VMULPS       Z9, Z13, Z21
	VADDPS       Z14, Z0, K1, Z0
	VADDPS       Z15, Z1, K1, Z1
	VADDPS       Z16, Z2, K2, Z2
	VADDPS       Z17, Z3, K2, Z3
	VADDPS       Z18, Z4, K3, Z4
	VADDPS       Z19, Z5, K3, Z5
	VADDPS       Z20, Z6, K4, Z6
	VADDPS       Z21, Z7, K4, Z7
	ADDQ         R9, AX
	ADDQ         R11, R13
	DECQ         R10
	JNZ          step
	LEAQ         (DI)(DX*1), CX
	VMOVUPS      Z0, K5, (CX)
	VMOVUPS      Z1, K6, 64(CX)
	MOVQ         d1-8(SP), R10
	VMOVUPS      Z2, K5, (CX)(R10*1)
	VMOVUPS      Z3, K6, 64(CX)(R10*1)
	MOVQ         d2-16(SP), R10
	VMOVUPS      Z4, K5, (CX)(R10*1)
	VMOVUPS      Z5, K6, 64(CX)(R10*1)
	MOVQ         d3-24(SP), R10
	VMOVUPS      Z6, K5, (CX)(R10*1)
	VMOVUPS      Z7, K6, 64(CX)(R10*1)
	ADDQ         $128, DX
	CMPQ         DX, R9
	JB           tile
	LEAQ         (DI)(R9*4), DI
	MOVQ         aRow+48(FP), CX
	SHLQ         $4, CX
	ADDQ         CX, SI
	SUBQ         $4, rows+24(FP)
	JG           group
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
