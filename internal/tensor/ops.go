package tensor

import (
	"fmt"
	"math"
)

// Every dense product — MatMul, MatMulAT, and the input gradient, which
// nn runs as MatMul against a transposed weight — follows one rule:
// loop order and register blocking are free to change, the per-element
// reduction is not. Every dst[i][j] is zeroed and then receives av·bv
// for p = 0, 1, 2, … with av == 0 skipped (so a zero never meets a NaN
// or Inf on the other side), one rounding per multiply and per add — no
// fused multiply-add, which rounds once. That is what keeps sharded ==
// single-store, tcp == inproc and Infer == Forward bit-equal. How a
// kernel finds the entries to skip is free: the Go loops test one at a
// time, the AVX2 row loop eight at once, walking the survivors in
// ascending order.

// The row loops the multiply-accumulate kernels reduce to. They start
// out as the portable Go loops in this file, which is all that other
// architectures and CPUs without AVX2 ever run and what the SIMD tests
// compare against; simd_amd64.go swaps in the assembly ones at start-up
// when the CPU has AVX2. Both compute the same bits.
var (
	rowMulAdd    = rowMulAddGo
	matMulRows   = matMulRowsGo
	matMulATRows = matMulATRowsGo
	addRows      = addRowsGo
)

// mulAdd1 computes d[j] += av·b[j].
func mulAdd1(d []float32, av float32, b []float32) {
	b = b[:len(d)]
	for j := range d {
		d[j] += av * b[j]
	}
}

// mulAdd4 is four successive mulAdd1 calls fused into one pass over d:
// the running sum of each element lives in a register instead of being
// stored and reloaded between the four products.
func mulAdd4(d []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j := range d {
		s := d[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		d[j] = s
	}
}

// RowMulAdd computes dst += a·b for one row: a has b.Rows entries, dst
// b.Cols. Zero entries of a are skipped; the surviving rows of b are
// consumed in ascending order. It is the row kernel of MatMul and of
// nn's fused inference, so the two cannot drift apart.
func RowMulAdd(dst, a []float32, b *Matrix) {
	if len(dst) != b.Cols || len(a) != b.Rows {
		panic(fmt.Sprintf("tensor: RowMulAdd shape mismatch (1x%d)·(%dx%d)->(1x%d)",
			len(a), b.Rows, b.Cols, len(dst)))
	}
	rowMulAdd(dst, a, b)
}

// rowMulAddGo takes the surviving rows of b four per pass over dst.
func rowMulAddGo(dst, a []float32, b *Matrix) {
	n := b.Cols
	var av [4]float32
	var br [4][]float32
	g := 0
	for p, v := range a {
		if v == 0 {
			continue
		}
		av[g], br[g] = v, b.Data[p*n:(p+1)*n]
		if g++; g == 4 {
			mulAdd4(dst, av[0], av[1], av[2], av[3], br[0], br[1], br[2], br[3])
			g = 0
		}
	}
	for q := 0; q < g; q++ {
		mulAdd1(dst, av[q], br[q])
	}
}

// dispatch runs a range kernel over [0, n) on pool. A single-worker pool
// calls it directly, so the serial path allocates no closure.
func dispatch(pool *Pool, n int, dst, a, b *Matrix, kernel func(dst, a, b *Matrix, lo, hi int)) {
	if pool.Workers() == 1 {
		kernel(dst, a, b, 0, n)
		return
	}
	pool.ParallelWeighted(n, nil, func(lo, hi int) { kernel(dst, a, b, lo, hi) })
}

// MatMul computes dst = a·b, parallelised over row blocks of a on pool
// with work-stealing dispatch (row results are per-row, so stealing
// never reorders a reduction). Shapes: a is m×k, b is k×n, dst is m×n.
// dst must not alias a or b.
func MatMul(pool *Pool, dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(pool, a.Rows, dst, a, b, matMulRows)
}

func matMulRowsGo(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	clear(dst.Data[lo*n : hi*n])
	for i := lo; i < hi; i++ {
		rowMulAddGo(dst.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b)
	}
}

// Transpose writes srcᵀ into dst. Shapes: src is m×n, dst is n×m. dst
// must not alias src.
func Transpose(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch (%dx%d)T->(%dx%d)", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	m := src.Rows
	for i := 0; i < m; i++ {
		for j, v := range src.Row(i) {
			dst.Data[j*m+i] = v
		}
	}
}

// matMulATTile bounds, in floats, the block of dst rows MatMulAT keeps
// hot per pass over a and b, so the block stays in L1 next to the
// streamed rows.
const matMulATTile = 4096

// MatMulAT computes dst = aᵀ·b. Shapes: a is k×m, b is k×n, dst is m×n.
// The parallel split is over columns of a (rows of dst) so partial sums
// never race.
func MatMulAT(pool *Pool, dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAT shape mismatch (%dx%d)T·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(pool, a.Cols, dst, a, b, matMulATRows)
}

// matMulATRowsGo runs p outermost within a chunk: the rows of a and b
// are streamed once per dst block, four at a time, so a is read along
// its rows (a column walk touches one cache line per float) and the
// block of dst stays resident while everything else passes through.
func matMulATRowsGo(dst, a, b *Matrix, lo, hi int) {
	k, m, n := a.Rows, a.Cols, b.Cols
	clear(dst.Data[lo*n : hi*n])
	tile := max(1, matMulATTile/max(1, n))
	for tlo := lo; tlo < hi; tlo += tile {
		thi := min(tlo+tile, hi)
		p := 0
		for ; p+4 <= k; p += 4 {
			as, bs := a.Data[p*m:(p+4)*m], b.Data[p*n:(p+4)*n]
			br := [4][]float32{bs[:n], bs[n : 2*n], bs[2*n : 3*n], bs[3*n:]}
			for i := tlo; i < thi; i++ {
				dr := dst.Data[i*n : (i+1)*n]
				av := [4]float32{as[i], as[m+i], as[2*m+i], as[3*m+i]}
				if av[0] != 0 && av[1] != 0 && av[2] != 0 && av[3] != 0 {
					mulAdd4(dr, av[0], av[1], av[2], av[3], br[0], br[1], br[2], br[3])
					continue
				}
				for q, v := range av {
					if v != 0 {
						mulAdd1(dr, v, br[q])
					}
				}
			}
		}
		for ; p < k; p++ {
			ar, br := a.Data[p*m:(p+1)*m], b.Data[p*n:(p+1)*n]
			for i := tlo; i < thi; i++ {
				if v := ar[i]; v != 0 {
					mulAdd1(dst.Data[i*n:(i+1)*n], v, br)
				}
			}
		}
	}
}

// AddRows computes dst += x.Row(id) for every id in order: the inner
// loop of sum and mean aggregation. dst has x.Cols entries.
func AddRows(dst []float32, x *Matrix, ids []int32) {
	if len(dst) != x.Cols {
		panic(fmt.Sprintf("tensor: AddRows adds %d-wide rows into %d entries", x.Cols, len(dst)))
	}
	addRows(dst, x, ids)
}

// addRowsGo adds four independent elements per iteration: at one per
// iteration the loop is front-end bound.
func addRowsGo(dst []float32, x *Matrix, ids []int32) {
	for _, id := range ids {
		src := x.Row(int(id))[:len(dst)]
		k := 0
		for ; k+4 <= len(src); k += 4 {
			d, s := dst[k:k+4:k+4], src[k:k+4:k+4]
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
		}
		for ; k < len(src); k++ {
			dst[k] += src[k]
		}
	}
}

// Add computes dst += src elementwise. Shapes must match.
func Add(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// ColSum accumulates the column sums of m into dst (len Cols). dst is
// overwritten.
func ColSum(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSum length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// reluMask is all ones when the float32 with bits u is > 0, that is
// 1 ≤ u ≤ 0x7f800000, and zero otherwise. Go compiles `if v > 0` to a
// jump, which random-sign activations mispredict half the time.
func reluMask(u uint32) uint32 {
	return ^(uint32(int32(u-1)>>31) | uint32(int32(0x7f800000-u)>>31))
}

// AddBiasRow adds bias to row and then, with relu, applies ReLU: a sum
// > 0 stays, and NaN, −0 and negatives all become +0 (Go's max(v, 0)
// keeps NaN). It is a layer's bias-and-activation epilogue in one pass.
func AddBiasRow(row, bias []float32, relu bool) {
	if len(row) != len(bias) {
		panic("tensor: AddBiasRow length mismatch")
	}
	for j, b := range bias {
		v := row[j] + b
		if relu {
			u := math.Float32bits(v)
			v = math.Float32frombits(u & reluMask(u))
		}
		row[j] = v
	}
}

// ReLUBackward sets dst to grad where act > 0 and to +0 everywhere else,
// by the rule AddBiasRow's ReLU uses, and overwrites colSum with the
// column sums of dst, added row by row as ColSum adds them. act must be
// the ReLU *output* (or input; they share sign).
func ReLUBackward(dst, grad, act *Matrix, colSum []float32) {
	if dst.Rows != grad.Rows || dst.Cols != grad.Cols || act.Rows != grad.Rows || act.Cols != grad.Cols || len(colSum) != grad.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	clear(colSum)
	n := grad.Cols
	for i := 0; i < grad.Rows; i++ {
		d, a := dst.Data[i*n:(i+1)*n], act.Data[i*n:(i+1)*n]
		for j, g := range grad.Data[i*n : (i+1)*n] {
			v := math.Float32frombits(math.Float32bits(g) & reluMask(math.Float32bits(a[j])))
			d[j] = v
			colSum[j] += v
		}
	}
}

// SoftmaxRows computes a numerically-stable row-wise softmax of src into
// dst. dst and src may alias. Degenerate shapes (no rows, or no columns
// — an empty predict batch) are a no-op rather than a panic.
func SoftmaxRows(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: SoftmaxRows shape mismatch")
	}
	if src.Cols == 0 {
		return
	}
	for i := 0; i < src.Rows; i++ {
		in := src.Row(i)
		out := dst.Row(i)
		max := in[0]
		for _, v := range in[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range in {
			e := math.Exp(float64(v - max))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// ArgMaxRows writes the index of the maximum element of each row of m into
// dst (len Rows). A zero-column matrix has no maximum: every dst entry is
// set to -1 instead of panicking.
func ArgMaxRows(dst []int, m *Matrix) {
	if len(dst) != m.Rows {
		panic("tensor: ArgMaxRows length mismatch")
	}
	if m.Cols == 0 {
		for i := range dst {
			dst[i] = -1
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestV := 0, row[0]
		for j, v := range row[1:] {
			if v > bestV {
				best, bestV = j+1, v
			}
		}
		dst[i] = best
	}
}
