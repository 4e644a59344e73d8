package tensor

// The AVX2 path of the row kernels in ops.go, and the AVX-512 kernel
// under its dense products: simd_amd64.s holds the loops, this file the
// start-up selection and the Go wrappers that turn slices into the
// pointers and counts the assembly takes. A wrapper passes on only
// shapes its caller has checked and never the address of an empty
// slice, so the assembly sees positive counts and memory that is there.

func init() {
	avx2, avx512 := cpuFeatures()
	if avx2 {
		matMulRows, matMulATRows, addRows = matMulRowsAVX2, matMulATRowsAVX2, addRowsAVX2
		addBiasRows, reluBackwardCols, scatterRows = addBiasRowsAVX2, reluBackwardColsAVX2, scatterRowsAVX2
	}
	if avx512 {
		mulAddRows = avx512MulAddRows
	}
}

// cpuFeatures runs only here, at init: CPUID traps to the hypervisor on
// a virtual machine, and one call per row doubled an epoch's time.
func cpuFeatures() (avx2, avx512 bool)

// mulAddRows is the kernel under MatMul and MatMulAT: the AVX-512 one
// where the CPU has it, avx2MulAddRows where it has only AVX2.
var mulAddRows = avx2MulAddRows

//go:noescape
func avx2MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int, zero bool)

//go:noescape
func avx512MulAddRows(dst, a, b *float32, rows, k, n, aRow, aStep int, zero bool)

//go:noescape
func avx2AddRows(dst, x *float32, ids *int32, count, n int, c float32)

//go:noescape
func avx2AddBias(dst, bias *float32, rows, n int, relu bool)

//go:noescape
func avx2ReLUBackward(dst, grad, act, colSum *float32, rows, n, stride int)

//go:noescape
func avx2ScatterRows(dst, src *float32, ids *int32, count, n int, c float32)

func matMulRowsAVX2(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	d := dst.Data[lo*n : hi*n]
	if len(d) == 0 || k == 0 {
		clear(d)
		return
	}
	ad, bd := a.Data[lo*k:hi*k], b.Data[:k*n]
	mulAddRows(&d[0], &ad[0], &bd[0], hi-lo, k, n, k, 1, true)
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
	if len(d) == 0 || k == 0 {
		clear(d)
		return
	}
	for p := 0; p < k; p += matMulATBlock {
		kb := min(matMulATBlock, k-p)
		// Columns lo … hi-1 of rows p … p+kb-1, first to last element.
		ad, bd := a.Data[p*m+lo:(p+kb-1)*m+hi], b.Data[p*n:(p+kb)*n]
		mulAddRows(&d[0], &ad[0], &bd[0], hi-lo, kb, n, 1, m, p == 0)
	}
}

func addRowsAVX2(dst []float32, x *Matrix, ids []int32, c float32) {
	if len(dst) == 0 || len(ids) == 0 {
		addRowsGo(dst, x, ids, c)
		return
	}
	checkRows("AddRows", ids, x.Rows)
	xd := x.Data[:x.Rows*len(dst)]
	avx2AddRows(&dst[0], &xd[0], &ids[0], len(ids), len(dst), c)
}

// checkRows panics unless every id is a row of a rows-row matrix.
func checkRows(what string, ids []int32, rows int) {
	for _, id := range ids {
		if uint(id) >= uint(rows) {
			panic("tensor: " + what + " row out of range")
		}
	}
}

func addBiasRowsAVX2(rows, bias []float32, relu bool) {
	if n := len(bias); n > 0 && len(rows) >= n {
		avx2AddBias(&rows[0], &bias[0], len(rows)/n, n, relu)
	}
}

func reluBackwardColsAVX2(dst, grad, act *Matrix, colSum []float32, lo, hi int) {
	if lo == hi || grad.Rows == 0 {
		reluBackwardColsGo(dst, grad, act, colSum, lo, hi) // clears the sums
		return
	}
	end := (grad.Rows-1)*grad.Cols + hi // one past the last element read
	d, g, a, sum := dst.Data[lo:end], grad.Data[lo:end], act.Data[lo:end], colSum[lo:hi]
	avx2ReLUBackward(&d[0], &g[0], &a[0], &sum[0], grad.Rows, hi-lo, grad.Cols)
}

func scatterRowsAVX2(dst []float32, ids []int32, src []float32, c float32) {
	if len(src) > 0 && len(ids) > 0 {
		checkRows("ScatterRows", ids, len(dst)/len(src))
		avx2ScatterRows(&dst[0], &src[0], &ids[0], len(ids), len(src), c)
	}
}
