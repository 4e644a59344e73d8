package tensor

import (
	"fmt"
	"math"
)

// Every kernel follows one rule: loop order and register blocking are
// free, the per-element arithmetic is not, which keeps sharded ==
// single-store, tcp == inproc and Infer == Forward bit-equal. A dense
// product (MatMul, MatMulAT, and the input gradient, MatMul against a
// transposed weight) zeroes dst[i][j] and adds av·bv for p = 0, 1, 2, …
// with av == 0 skipped (a zero never meets a NaN or Inf), one rounding
// per multiply and per add — no fused multiply-add. The per-element
// passes (AddBias, ReLUBackward, ScatterRows and AddScaled) fix NaN
// payloads too: x86 keeps the first operand's when both are NaNs, and
// the first is the one the source names first, so `d += s*c` is
// d + (s·c). The compiler orders operands as it likes (a -race build
// differently), so the Go loops pin the order with nanFirst.

// The six row loops below start out as the portable Go loops in this
// file, all that other architectures and CPUs without AVX2 ever run and
// what the SIMD tests compare against; simd_amd64.go swaps in an AVX2
// twin of each at start-up when the CPU has AVX2. matMulRows and
// matMulATRows then run the AVX-512 kernel where the CPU has AVX-512F.
var (
	matMulRows       = matMulRowsGo
	matMulATRows     = matMulATRowsGo
	addRows          = addRowsGo
	addBiasRows      = addBiasRowsGo
	reluBackwardCols = reluBackwardColsGo
	scatterRows      = scatterRowsGo
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

// rowMulAddGo is the portable MatMul's row loop, dst += a·b: zero entries
// of a are skipped, the other rows of b taken in order, four per pass.
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

// AddRows adds x.Row(id) to dst for every id in order, then scales dst
// by c: the inner loop of sum (c = 1) and mean (c = 1/len(ids)) pooling.
func AddRows(dst []float32, x *Matrix, ids []int32, c float32) {
	if len(dst) != x.Cols {
		panic(fmt.Sprintf("tensor: AddRows adds %d-wide rows into %d entries", x.Cols, len(dst)))
	}
	addRows(dst, x, ids, c)
}

// addRowsGo adds four independent elements per iteration: at one per
// iteration the loop is front-end bound.
func addRowsGo(dst []float32, x *Matrix, ids []int32, c float32) {
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
	for k := range dst {
		dst[k] *= c
	}
}

// ColSum accumulates the column sums of m into dst (len Cols). dst is
// overwritten.
func ColSum(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSum length mismatch")
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}

// ScatterRows computes dst.Row(id) += src·c for every id in order: the
// scatter of every aggregator's backward. src must not overlap dst.
func ScatterRows(dst *Matrix, ids []int32, src []float32, c float32) {
	if len(src) != dst.Cols {
		panic("tensor: ScatterRows width mismatch")
	}
	scatterRows(dst.Data, ids, src, c)
}

// AddScaled computes dst += src·c: ScatterRows on a single row.
func AddScaled(dst, src []float32, c float32) {
	if len(dst) != len(src) {
		panic("tensor: AddScaled length mismatch")
	}
	scatterRows(dst, firstRow, src, c)
}

var firstRow = []int32{0}

// scatterRowsGo adds src·c to each listed len(src)-wide row of dst, four
// elements per iteration (one is front-end bound). One test of the four
// sums stands in for eight nanFirst branches, which doubled its time.
func scatterRowsGo(dst []float32, ids []int32, src []float32, c float32) {
	for _, id := range ids {
		row, k := dst[int(id)*len(src):(int(id)+1)*len(src)], 0
		for ; k+4 <= len(src); k += 4 {
			d, s := row[k:k+4:k+4], src[k:k+4:k+4]
			r0, r1, r2, r3 := d[0]+s[0]*c, d[1]+s[1]*c, d[2]+s[2]*c, d[3]+s[3]*c
			if t := r0 + r1 + r2 + r3; t != t { // a NaN, or infinities of both signs
				r0, r1, r2, r3 = addScaled1(d[0], s[0], c), addScaled1(d[1], s[1], c), addScaled1(d[2], s[2], c), addScaled1(d[3], s[3], c)
			}
			d[0], d[1], d[2], d[3] = r0, r1, r2, r3
		}
		for ; k < len(src); k++ {
			row[k] = addScaled1(row[k], src[k], c)
		}
	}
}

func addScaled1(d, s, c float32) float32 { return nanFirst(d+nanFirst(s*c, s), d) }

// nanFirst returns v = a + b or a·b, or a's NaN, quieted, if a is one.
func nanFirst(v, a float32) float32 {
	if a != a {
		return math.Float32frombits(math.Float32bits(a) | 1<<22)
	}
	return v
}

// reluMask is all ones when the float32 with bits u is > 0, that is
// 1 ≤ u ≤ 0x7f800000, and zero otherwise. Go compiles `if v > 0` to a
// jump, which random-sign activations mispredict half the time.
func reluMask(u uint32) uint32 {
	return ^(uint32(int32(u-1)>>31) | uint32(int32(0x7f800000-u)>>31))
}

// AddBias adds bias to every row of m and then, with relu, applies
// ReLU: a sum > 0 stays, and NaN, −0 and negatives all become +0 (Go's
// max(v, 0) keeps NaN). It is a layer's bias-and-activation epilogue in
// one pass, split over rows on pool.
func AddBias(pool *Pool, m *Matrix, bias []float32, relu bool) {
	if len(bias) != m.Cols {
		panic("tensor: AddBias length mismatch")
	}
	if pool.Workers() == 1 {
		addBiasRows(m.Data, bias, relu)
		return
	}
	pool.ParallelWeighted(m.Rows, nil, func(lo, hi int) { addBiasRows(m.Data[lo*m.Cols:hi*m.Cols], bias, relu) })
}

// addBiasRowsGo is AddBias on each len(bias)-wide row of rows.
func addBiasRowsGo(rows, bias []float32, relu bool) {
	for n := len(bias); n > 0 && len(rows) >= n; rows = rows[n:] {
		for j, b := range bias {
			v := nanFirst(rows[j]+b, rows[j])
			if relu {
				u := math.Float32bits(v)
				v = math.Float32frombits(u & reluMask(u))
			}
			rows[j] = v
		}
	}
}

// ReLUBackward sets dst to grad where act > 0 and to +0 everywhere else,
// by the rule AddBias's ReLU uses, and overwrites colSum with the
// column sums of dst, added row by row as ColSum adds them. act must be
// the ReLU *output* (or input; they share sign). pool splits the
// columns in blocks of 8, so each sum still adds rows 0, 1, 2, … in order.
func ReLUBackward(pool *Pool, dst, grad, act *Matrix, colSum []float32) {
	if dst.Rows != grad.Rows || dst.Cols != grad.Cols || act.Rows != grad.Rows || act.Cols != grad.Cols || len(colSum) != grad.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	n, blocks := grad.Cols, (grad.Cols+7)/8
	if parts := min(pool.Workers(), blocks); parts > 1 {
		col := func(k int) int { return min(n, k*blocks/parts*8) }
		pool.ParallelWeighted(parts, nil, func(lo, hi int) { reluBackwardCols(dst, grad, act, colSum, col(lo), col(hi)) })
		return
	}
	reluBackwardCols(dst, grad, act, colSum, 0, n)
}

// reluBackwardColsGo is ReLUBackward on columns [lo, hi).
func reluBackwardColsGo(dst, grad, act *Matrix, colSum []float32, lo, hi int) {
	sum := colSum[lo:hi]
	clear(sum)
	n := grad.Cols
	for i := 0; i < grad.Rows; i++ {
		d, a := dst.Data[i*n+lo:i*n+hi], act.Data[i*n+lo:i*n+hi]
		for j, g := range grad.Data[i*n+lo : i*n+hi] {
			v := math.Float32frombits(math.Float32bits(g) & reluMask(math.Float32bits(a[j])))
			d[j] = v
			sum[j] = nanFirst(sum[j]+v, sum[j])
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
