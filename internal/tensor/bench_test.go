package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDense times one dense kernel on the logical product
// dst(m×n) = A(m×k)·B(k×n).
func benchDense(b *testing.B, kern denseKernel, workers, m, k, n int) {
	b.Helper()
	x, y := kern.operands(rand.New(rand.NewSource(1)), m, k, n)
	dst, pool := New(m, n), NewPool(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.run(pool, dst, x, y)
	}
}

// benchStep times one kernel on the (numDst, 2·in, out) triples a
// training step issues per layer on the repo benchmark's train_single
// workload (a 64→32→32→10 SAGE model, 128 targets, fan-outs 15/10/5).
// shape maps a triple to the kernel's logical (m, k, n).
func benchStep(b *testing.B, kern denseKernel, shape func(numDst, in2, out int) (m, k, n int)) {
	for _, s := range [][3]int{{4097, 128, 32}, {701, 64, 32}, {128, 64, 10}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			m, k, n := shape(s[0], s[1], s[2])
			benchDense(b, kern, 1, m, k, n)
		})
	}
}

func BenchmarkMatMul128(b *testing.B)          { benchDense(b, kernMatMul, 1, 128, 128, 128) }
func BenchmarkMatMul128Parallel4(b *testing.B) { benchDense(b, kernMatMul, 4, 128, 128, 128) }
func BenchmarkMatMulAT128(b *testing.B)        { benchDense(b, kernMatMulAT, 1, 128, 128, 128) }

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
		wT := bufs.Get(w.Cols, w.Rows)
		Transpose(wT, w)
		MatMul(pool, dst, dZ, wT)
		bufs.Put(wT)
	}, nil, func(rng *rand.Rand, m, k, n int) (*Matrix, *Matrix) {
		return randomMatrix(rng, m, k), randomMatrix(rng, n, k)
	}}
	benchStep(b, kern, func(numDst, in2, out int) (int, int, int) { return numDst, out, in2 })
}

// BenchmarkRowMulAdd times the row kernel under MatMul, MatMulAT and
// the fused Infer at the engine's widths, on the path start-up selected
// and on the portable Go loop. One op is 1024 rows, so a single
// iteration (CI runs -benchtime 1x) is long enough to time.
func BenchmarkRowMulAdd(b *testing.B) {
	const rows = 1024
	for _, s := range [][2]int{{128, 32}, {64, 32}, {64, 10}} {
		k, n := s[0], s[1]
		rng := rand.New(rand.NewSource(2))
		a, w, dst := randomMatrix(rng, rows, k), randomMatrix(rng, k, n), New(rows, n)
		for _, path := range []struct {
			name string
			run  func(dst, a []float32, b *Matrix)
		}{{"selected", rowMulAdd}, {"portable", rowMulAddGo}} {
			b.Run(fmt.Sprintf("k%dn%d/%s", k, n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := 0; r < rows; r++ {
						path.run(dst.Row(r), a.Row(r), w)
					}
				}
				b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 1024, 47)
	out := New(1024, 47)
	for i := 0; i < b.N; i++ {
		SoftmaxRows(out, m)
	}
}

func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 1024, 128)
	out := New(1024, 128)
	for i := 0; i < b.N; i++ {
		ReLU(out, m)
	}
}

// BenchmarkReLUBackward masks a random gradient by random-sign
// activations, about half of them positive, as after a layer's ReLU.
func BenchmarkReLUBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	grad, act := randomMatrix(rng, 1024, 128), randomMatrix(rng, 1024, 128)
	out := New(1024, 128)
	for i := 0; i < b.N; i++ {
		ReLUBackward(out, grad, act)
	}
}

// BenchmarkRowTableAddReset is one epoch of a per-epoch accumulator on
// the repo benchmark's train_shard_local shape: 16 batches of ~2400
// 64-wide rows summed into a ~8500-row working set, then a reset.
func BenchmarkRowTableAddReset(b *testing.B) {
	const width, batches, batchRows, working, idSpace = 64, 16, 2400, 8500, 32_000
	rng := rand.New(rand.NewSource(5))
	pool := rng.Perm(idSpace)[:working]
	ids := make([]int32, batches*batchRows)
	for i := range ids {
		ids[i] = int32(pool[rng.Intn(working)])
	}
	grad := make([]float32, width)
	for j := range grad {
		grad[j] = rng.Float32()
	}
	tb := NewRowTable(width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			row, _ := tb.Add(id)
			for j, x := range grad {
				row[j] += x
			}
		}
		tb.Reset()
	}
}
