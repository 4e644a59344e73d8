package tensor

import "fmt"

// The AVX2 path of the row kernels in ops.go: simd_amd64.s holds the
// loops, this file the start-up selection and the Go wrappers that turn
// slices into the pointers and counts the assembly takes. A wrapper
// passes on only shapes its caller has checked and never the address of
// an empty slice, so the assembly sees positive counts and memory that
// is there.

func init() {
	if cpuHasAVX2() {
		rowMulAdd, matMulRows, matMulATRows, addRows = rowMulAddAVX2, matMulRowsAVX2, matMulATRowsAVX2, addRowsAVX2
	}
}

func cpuHasAVX2() bool

//go:noescape
func avx2MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int)

//go:noescape
func avx2AddRows(dst, x *float32, ids *int32, count, n int)

func rowMulAddAVX2(dst, a []float32, b *Matrix) {
	if len(dst) == 0 || len(a) == 0 {
		return
	}
	bd := b.Data[:len(a)*len(dst)]
	avx2MulAddRows(&dst[0], &a[0], &bd[0], 1, len(a), len(dst), len(a), 1)
}

func matMulRowsAVX2(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	d := dst.Data[lo*n : hi*n]
	clear(d)
	if len(d) == 0 || k == 0 {
		return
	}
	ad, bd := a.Data[lo*k:hi*k], b.Data[:k*n]
	avx2MulAddRows(&d[0], &ad[0], &bd[0], hi-lo, k, n, k, 1)
}

// matMulATBlock is how many rows of a and b one call reduces over. The
// assembly walks a column of a per dst row; within a block the 16
// columns that share a cache line find it in L1 (64 lines), next to the
// block of b (64 rows), instead of fetching it once per column.
const matMulATBlock = 64

// matMulATRowsAVX2 is the MatMul row loop run over aᵀ: dst row i keeps
// its sums in registers while p walks down column i of a. Blocks of p
// are taken in ascending order, so each element still sees p = 0, 1, 2, …
func matMulATRowsAVX2(dst, a, b *Matrix, lo, hi int) {
	k, m, n := a.Rows, a.Cols, b.Cols
	d := dst.Data[lo*n : hi*n]
	clear(d)
	if len(d) == 0 {
		return
	}
	for p := 0; p < k; p += matMulATBlock {
		kb := min(matMulATBlock, k-p)
		// Columns lo … hi-1 of rows p … p+kb-1, first to last element.
		ad, bd := a.Data[p*m+lo:(p+kb-1)*m+hi], b.Data[p*n:(p+kb)*n]
		avx2MulAddRows(&d[0], &ad[0], &bd[0], hi-lo, kb, n, 1, m)
	}
}

func addRowsAVX2(dst []float32, x *Matrix, ids []int32) {
	if len(dst) == 0 || len(ids) == 0 {
		return
	}
	for _, id := range ids {
		if uint(id) >= uint(x.Rows) {
			panic(fmt.Sprintf("tensor: AddRows row %d of a %d-row matrix", id, x.Rows))
		}
	}
	xd := x.Data[:x.Rows*len(dst)]
	avx2AddRows(&dst[0], &xd[0], &ids[0], len(ids), len(dst))
}
