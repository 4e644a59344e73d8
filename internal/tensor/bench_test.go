package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDense times one dense kernel on the logical product
// dst(m×n) = A(m×k)·B(k×n). With sparse, about half of A is ±0 at
// random, as after a ReLU.
func benchDense(b *testing.B, kern denseKernel, workers, m, k, n int, sparse bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	x, y := kern.operands(rng, m, k, n)
	if sparse {
		reluZeros(rng, x)
	}
	dst, pool := New(m, n), NewPool(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.run(pool, dst, x, y)
	}
}

// stepShapes are the (numDst, 2·in, out) triples a training step issues
// per layer on the repo benchmark's train_single workload (a
// 64→32→32→10 SAGE model, 128 targets, fan-outs 15/10/5): a batch's
// layers have 7 910, 1 336 and 128 destinations on average at seed 3
// (7 872–7 948 and 1 332–1 344 over seeds 1–5).
var stepShapes = [][3]int{{7910, 128, 32}, {1336, 64, 32}, {128, 64, 10}}

// benchStep times one kernel on stepShapes, on dense operands and,
// under sparse/, on a half-zero left operand, on each path: the
// portable loops, then every SIMD kernel the CPU has (simdKernels).
// shape maps a triple to the kernel's logical (m, k, n).
func benchStep(b *testing.B, kern denseKernel, shape func(numDst, in2, out int) (m, k, n int)) {
	shapes := func(b *testing.B, sparse bool) {
		for _, s := range stepShapes {
			b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
				m, k, n := shape(s[0], s[1], s[2])
				benchDense(b, kern, 1, m, k, n, sparse)
			})
		}
	}
	for _, path := range append([]rowKernel{portableKernels}, simdKernels()...) {
		b.Run(path.name, func(b *testing.B) {
			path.use(b)
			shapes(b, false)
			b.Run("sparse", func(b *testing.B) { shapes(b, true) })
		})
	}
}

func BenchmarkMatMul128(b *testing.B)          { benchDense(b, kernMatMul, 1, 128, 128, 128, false) }
func BenchmarkMatMul128Parallel4(b *testing.B) { benchDense(b, kernMatMul, 4, 128, 128, 128, false) }
func BenchmarkMatMulAT128(b *testing.B)        { benchDense(b, kernMatMulAT, 1, 128, 128, 128, false) }

// Forward: concat(numDst×2in) · W(2in×out).
func BenchmarkMatMulTall(b *testing.B) {
	benchStep(b, kernMatMul, func(numDst, in2, out int) (int, int, int) { return numDst, in2, out })
}

// Weight gradient: concatᵀ · dZ(numDst×out), reduced over numDst.
func BenchmarkMatMulATTall(b *testing.B) {
	benchStep(b, kernMatMulAT, func(numDst, in2, out int) (int, int, int) { return in2, numDst, out })
}

// Input gradient: dZ(numDst×out) · Wᵀ, reduced over out, the way nn's
// denseBackward runs it: W(2in×out) transposed into a pooled buffer,
// then MatMul.
func BenchmarkInputGradTransposeMatMulTall(b *testing.B) {
	bufs := NewBufPool()
	kern := denseKernel{"InputGrad", func(pool *Pool, dst, dZ, w *Matrix) {
		wT := bufs.GetDirty(w.Cols, w.Rows)
		Transpose(wT, w)
		MatMul(pool, dst, dZ, wT)
		bufs.Put(wT)
	}, nil, func(rng *rand.Rand, m, k, n int) (*Matrix, *Matrix) {
		return randomMatrix(rng, m, k), randomMatrix(rng, n, k)
	}}
	benchStep(b, kern, func(numDst, in2, out int) (int, int, int) { return numDst, out, in2 })
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 1024, 47)
	out := New(1024, 47)
	for i := 0; i < b.N; i++ {
		SoftmaxRows(out, m)
	}
}

// paths runs one benchmark per row-loop path: the one start-up
// selected and the portable Go loop.
func paths[F any](b *testing.B, selected, portable F, bench func(b *testing.B, run F)) {
	b.Run("selected", func(b *testing.B) { bench(b, selected) })
	b.Run("portable", func(b *testing.B) { bench(b, portable) })
}

// BenchmarkAddBiasRow is a hidden layer's epilogue on its output, the
// widest of stepShapes: the bias added to and ReLU applied on
// random-sign sums, about half of them positive.
func BenchmarkAddBiasRow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m, bias := randomMatrix(rng, stepShapes[0][0], stepShapes[0][2]), randomMatrix(rng, 1, stepShapes[0][2])
	paths(b, addBiasRows, addBiasRowsGo, func(b *testing.B, run func(rows, bias []float32, relu bool)) {
		for i := 0; i < b.N; i++ {
			run(m.Data, bias.Data, true)
		}
	})
}

// BenchmarkReLUBackward masks a random gradient by random-sign
// activations, about half of them positive, as after a layer's ReLU,
// and sums the columns of the result, on the same shape.
func BenchmarkReLUBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rows, n := stepShapes[0][0], stepShapes[0][2]
	grad, act := randomMatrix(rng, rows, n), randomMatrix(rng, rows, n)
	out, sum := New(rows, n), make([]float32, n)
	paths(b, reluBackwardCols, reluBackwardColsGo, func(b *testing.B, run func(dst, grad, act *Matrix, colSum []float32, lo, hi int)) {
		for i := 0; i < b.N; i++ {
			run(out, grad, act, sum, 0, n)
		}
	})
}

// BenchmarkScatterRows is the SAGE backward scatter of train_single's
// middle layer: each of its 1 336 destinations adds its self half to
// its own row and its mean half to 10 random rows of the 7 910-row dX.
func BenchmarkScatterRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dsts, srcs, n, fanout := stepShapes[1][0], stepShapes[0][0], stepShapes[1][2], 10
	dX, dIn := New(srcs, n), randomMatrix(rng, dsts, 2*n)
	nbrs := make([]int32, dsts*fanout)
	for i := range nbrs {
		nbrs[i] = int32(rng.Intn(srcs))
	}
	paths(b, scatterRows, scatterRowsGo, func(b *testing.B, run func(dst []float32, ids []int32, src []float32, c float32)) {
		for i := 0; i < b.N; i++ {
			for d := 0; d < dsts; d++ {
				row := dIn.Row(d)
				run(dX.Data[d*n:(d+1)*n], firstRow, row[:n], 1)
				run(dX.Data, nbrs[d*fanout:(d+1)*fanout], row[n:], 1/float32(fanout))
			}
		}
	})
}
