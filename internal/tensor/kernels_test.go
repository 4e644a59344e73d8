package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the dense kernels as they stood before the
// cache-order rewrite, kept verbatim (minus the pool dispatch) as the
// definition of each output element's reduction: zero, then av·bv for
// ascending p, skipping av == 0. The production kernels must reproduce
// them bit for bit.

func refMatMul(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		for p, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

func refMatMulBT(dst, a, b *Matrix) {
	k, n := a.Cols, b.Rows
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var sum float32
			for p, av := range ar {
				sum += av * br[p]
			}
			dr[j] = sum
		}
	}
}

func refMatMulAT(dst, a, b *Matrix) {
	m, n := a.Cols, b.Cols
	for i := 0; i < m; i++ {
		dr := dst.Data[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		for p := 0; p < a.Rows; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// denseKernel pairs a production kernel with its reference. Shapes are
// given as (m, k, n) of the logical product dst(m×n) = A(m×k)·B(k×n);
// operands builds the two stored operands in the layout the kernel takes.
type denseKernel struct {
	name     string
	run      func(pool *Pool, dst, a, b *Matrix)
	ref      func(dst, a, b *Matrix)
	operands func(rng *rand.Rand, m, k, n int) (a, b *Matrix)
}

var (
	kernMatMul = denseKernel{"MatMul", MatMul, refMatMul, func(rng *rand.Rand, m, k, n int) (*Matrix, *Matrix) {
		return randomMatrix(rng, m, k), randomMatrix(rng, k, n)
	}}
	kernMatMulBT = denseKernel{"MatMulBT", MatMulBT, refMatMulBT, func(rng *rand.Rand, m, k, n int) (*Matrix, *Matrix) {
		return randomMatrix(rng, m, k), randomMatrix(rng, n, k)
	}}
	kernMatMulAT = denseKernel{"MatMulAT", MatMulAT, refMatMulAT, func(rng *rand.Rand, m, k, n int) (*Matrix, *Matrix) {
		return randomMatrix(rng, k, m), randomMatrix(rng, k, n)
	}}
)

// sprinkle overwrites about one element in eight of m with the values
// the zero-skip rule is about: exact zeros of both signs (skipped on the
// left, multiplied on the right), NaN and the infinities.
func sprinkle(rng *rand.Rand, m *Matrix) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), nan, inf, -inf, 0, 0, 0}
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = special[rng.Intn(len(special))]
		}
	}
}

// sameBits is Matrix.Equal on bit patterns, so NaN equals NaN and +0
// differs from −0. NaN payloads are not compared: which operand's
// payload survives an add is the hardware's choice, not the kernel's.
func sameBits(a, b *Matrix) (int, bool) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return -1, false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
			return i, false
		}
	}
	return 0, true
}

// TestDenseKernelsBitEqualReference is the gate behind "rewritten in
// place, bit-identically": every kernel against its pre-rewrite loop,
// over shapes that are not multiples of the register block, the
// engine's tall-skinny shapes, special values, and every worker count
// that changes the chunking.
func TestDenseKernelsBitEqualReference(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 1}, {5, 3, 10}, {10, 33, 3}, {33, 10, 5}, {1, 33, 33}, {33, 1, 4},
		// engine shapes: forward numDst×2·in → out, and the same
		// product seen from MatMulAT (m, n small, k tall) and MatMulBT.
		{4097, 128, 32}, {1031, 64, 32}, {257, 32, 10},
		{128, 4097, 32}, {64, 1031, 32}, {32, 257, 10},
		// a dst taller than one MatMulAT tile
		{300, 9, 32},
	}
	for _, kern := range []denseKernel{kernMatMul, kernMatMulBT, kernMatMulAT} {
		for _, sh := range shapes {
			for _, specials := range []bool{false, true} {
				m, k, n := sh[0], sh[1], sh[2]
				rng := rand.New(rand.NewSource(int64(m*1000003 + k*1009 + n)))
				a, b := kern.operands(rng, m, k, n)
				if specials {
					sprinkle(rng, a)
					sprinkle(rng, b)
				}
				want := New(m, n)
				kern.ref(want, a, b)
				for _, workers := range []int{1, 2, 3, 8} {
					got := New(m, n)
					got.Fill(7) // the kernel must overwrite, not accumulate
					kern.run(NewPool(workers), got, a, b)
					if at, ok := sameBits(got, want); !ok {
						t.Fatalf("%s %dx%dx%d specials=%v workers=%d: element %d = %g, reference %g",
							kern.name, m, k, n, specials, workers, at, got.Data[at], want.Data[at])
					}
				}
			}
		}
	}
}

// TestRowMulAddMatchesMatMulRow pins the exported row kernel to MatMul:
// accumulating into a zeroed row is MatMul's row, for every count of
// non-zero entries modulo the four-row pass.
func TestRowMulAddMatchesMatMulRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k <= 13; k++ {
		a, b := randomMatrix(rng, 1, k), randomMatrix(rng, k, 7)
		for z := 0; z < k; z += 3 {
			a.Data[z] = 0
		}
		want := New(1, 7)
		refMatMul(want, a, b)
		got := make([]float32, 7)
		RowMulAdd(got, a.Data, b)
		if at, ok := sameBits(FromSlice(1, 7, got), want); !ok {
			t.Fatalf("k=%d: element %d = %g, want %g", k, at, got[at], want.Data[at])
		}
	}
}
