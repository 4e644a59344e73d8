package tensor

import (
	"encoding/binary"
	"fmt"
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

// reluZeros sets about half of m, at random, to +0 or −0: the left
// operand of a product after a ReLU, whose zeros no branch predictor
// can learn.
func reluZeros(rng *rand.Rand, m *Matrix) {
	negZero := float32(math.Copysign(0, -1))
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = negZero
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
		// product seen from MatMulAT (m, n small, k tall).
		{4097, 128, 32}, {1031, 64, 32}, {257, 32, 10},
		{128, 4097, 32}, {64, 1031, 32}, {32, 257, 10},
		// a dst taller than one MatMulAT tile
		{300, 9, 32},
	}
	// widths on either side of one vector, one 32-column tile and two
	for _, n := range []int{7, 8, 9, 31, 33, 40, 64, 65, 72} {
		shapes = append(shapes, [3]int{5, 11, n})
	}
	for _, portable := range []bool{false, true} {
		if portable {
			usePortableKernels(t)
		}
		for _, kern := range []denseKernel{kernMatMul, kernMatMulAT} {
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
							t.Fatalf("%s %dx%dx%d specials=%v workers=%d portable=%v: element %d = %g, reference %g",
								kern.name, m, k, n, specials, workers, portable, at, got.Data[at], want.Data[at])
						}
					}
				}
			}
		}
	}
}

// usePortableKernels puts the Go row loops in charge for the rest of
// the test, whatever start-up selected.
func usePortableKernels(t *testing.T) {
	r, m, at, ad := rowMulAdd, matMulRows, matMulATRows, addRows
	rowMulAdd, matMulRows, matMulATRows, addRows = rowMulAddGo, matMulRowsGo, matMulATRowsGo, addRowsGo
	t.Cleanup(func() { rowMulAdd, matMulRows, matMulATRows, addRows = r, m, at, ad })
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

// The tests below compare the row loops start-up selected — the AVX2
// ones on an amd64 CPU that has them — with the portable Go loops, on
// storage laid out to catch what a vector kernel gets wrong: nothing
// 32-byte aligned, every operand ending where its allocation ends, and
// canaries on both sides of dst.

const canary = 12345.5

// unaligned copies m into storage that starts one float into an
// allocation and ends at its end.
func unaligned(m *Matrix) *Matrix {
	buf := make([]float32, 1+len(m.Data))
	copy(buf[1:], m.Data)
	return FromSlice(m.Rows, m.Cols, buf[1:])
}

// fenced is unaligned with canaries in front of and behind the data;
// check fails the test if a kernel wrote to one.
func fenced(m *Matrix) (fm *Matrix, check func(t *testing.T, what string)) {
	end := 1 + len(m.Data)
	buf := make([]float32, end+40)
	for i := range buf {
		buf[i] = canary
	}
	copy(buf[1:], m.Data)
	return FromSlice(m.Rows, m.Cols, buf[1:end:end]), func(t *testing.T, what string) {
		t.Helper()
		for i, v := range buf {
			if (i < 1 || i >= end) && v != canary {
				t.Fatalf("%s: wrote %g at offset %d of a %d-float dst", what, v, i-1, len(m.Data))
			}
		}
	}
}

func TestSelectedRowKernelsBitEqualPortable(t *testing.T) {
	const m = 5
	// 8 and 64: the AVX2 row loop's group and chunk; 64 also MatMulAT's p block
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 24, 63, 64, 65, 130}
	for n := 0; n <= 72; n++ {
		for _, k := range ks {
			for _, pattern := range []string{"third", "specials", "relu"} {
				if pattern == "relu" && k != 16 && k != 24 {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n*1009 + k)))
				a, at, b, init := randomMatrix(rng, m, k), randomMatrix(rng, k, m), randomMatrix(rng, k, n), randomMatrix(rng, m, n)
				switch pattern {
				case "relu":
					reluZeros(rng, a)
					reluZeros(rng, at)
				default:
					// every count of surviving entries modulo the Go loop's four-row pass
					for z := 0; z < len(a.Data); z += 3 {
						a.Data[z], at.Data[z] = 0, 0
					}
				}
				if pattern == "specials" {
					sprinkle(rng, a)
					sprinkle(rng, at)
					sprinkle(rng, b)
					sprinkle(rng, init)
				}
				a, at, b = unaligned(a), unaligned(at), unaligned(b)
				compare := func(kern string, run func(dst *Matrix), ref func(dst *Matrix), init *Matrix) {
					t.Helper()
					what := fmt.Sprintf("%s %dx%dx%d %s", kern, m, k, n, pattern)
					got, check := fenced(init)
					want := init.Clone()
					run(got)
					ref(want)
					check(t, what)
					if at, ok := sameBits(got, want); !ok {
						t.Fatalf("%s: element %d = %g, portable %g", what, at, got.Data[at], want.Data[at])
					}
				}
				// Rows outside [lo, hi) keep what they held.
				for _, r := range [][2]int{{0, m}, {1, 4}, {2, 2}} {
					lo, hi := r[0], r[1]
					compare("matMulRows",
						func(dst *Matrix) { matMulRows(dst, a, b, lo, hi) },
						func(dst *Matrix) { matMulRowsGo(dst, a, b, lo, hi) }, init)
					compare("matMulATRows",
						func(dst *Matrix) { matMulATRows(dst, at, b, lo, hi) },
						func(dst *Matrix) { matMulATRowsGo(dst, at, b, lo, hi) }, init)
				}
				// RowMulAdd accumulates into what dst holds.
				compare("rowMulAdd",
					func(dst *Matrix) { rowMulAdd(dst.Data, a.Data[:k], b) },
					func(dst *Matrix) { rowMulAddGo(dst.Data, a.Data[:k], b) }, FromSlice(1, n, init.Data[:n]))
			}
		}
	}
}

func TestSelectedAddRowsBitEqualPortable(t *testing.T) {
	const rows = 9
	for n := 0; n <= 72; n++ {
		for count := 0; count <= 6; count++ {
			for _, specials := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(n*1009 + count)))
				x, init := randomMatrix(rng, rows, n), randomMatrix(rng, 1, n)
				if specials {
					sprinkle(rng, x)
					sprinkle(rng, init)
				}
				x = unaligned(x)
				ids := make([]int32, count)
				for i := range ids {
					ids[i] = int32(rng.Intn(rows))
				}
				if count > 0 {
					ids[0] = rows - 1 // the row that ends the allocation
				}
				what := fmt.Sprintf("addRows %d rows of width %d specials=%v", count, n, specials)
				got, check := fenced(init)
				want := init.Clone()
				addRows(got.Data, x, ids)
				addRowsGo(want.Data, x, ids)
				check(t, what)
				if at, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: element %d = %g, portable %g", what, at, got.Data[at], want.Data[at])
				}
			}
		}
	}
}

// TestRowKernelShapeMismatchPanics: a wrong length is a panic on either
// path, never a read or write past a row. Before the up-front check a
// dst longer than b.Cols read into b's next row (the row slices keep
// their capacity to the end of b.Data).
func TestRowKernelShapeMismatchPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	b, x := New(6, 8), New(6, 8)
	for _, portable := range []bool{false, true} {
		if portable {
			usePortableKernels(t)
		}
		mustPanic("RowMulAdd with a long dst", func() { RowMulAdd(make([]float32, 9), make([]float32, 6), b) })
		mustPanic("RowMulAdd with a short dst", func() { RowMulAdd(make([]float32, 7), make([]float32, 6), b) })
		mustPanic("RowMulAdd with a long a", func() { RowMulAdd(make([]float32, 8), make([]float32, 7), b) })
		mustPanic("RowMulAdd with a short a", func() { RowMulAdd(make([]float32, 8), make([]float32, 5), b) })
		mustPanic("AddRows with a long dst", func() { AddRows(make([]float32, 9), x, []int32{0}) })
		mustPanic("AddRows with a short dst", func() { AddRows(make([]float32, 7), x, []int32{0}) })
		mustPanic("AddRows past the last row", func() { AddRows(make([]float32, 8), x, []int32{0, 6}) })
		mustPanic("AddRows with a negative row", func() { AddRows(make([]float32, 8), x, []int32{-1}) })
	}
}

// FuzzRowMulAddPaths feeds the selected and the portable row kernel the
// same raw bit patterns — denormals, NaNs, infinities, whatever the
// fuzzer finds — at a fuzzed width.
func FuzzRowMulAddPaths(f *testing.F) {
	f.Add(uint8(10), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127, 0, 0, 128, 255})
	f.Add(uint8(33), []byte("the dst row, then a, then as much of b as the bytes reach"))
	f.Fuzz(func(t *testing.T, width uint8, raw []byte) {
		n := int(width % 80)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		// vals holds dst (n), then k entries of a and k rows of b.
		if len(vals) < n {
			return
		}
		k := (len(vals) - n) / (1 + n)
		init := FromSlice(1, n, vals[:n])
		a := vals[n : n+k]
		b := unaligned(FromSlice(k, n, vals[n+k:n+k+k*n]))
		got, check := fenced(init)
		want := init.Clone()
		rowMulAdd(got.Data, a, b)
		rowMulAddGo(want.Data, a, b)
		check(t, "rowMulAdd")
		if at, ok := sameBits(got, want); !ok {
			t.Fatalf("width %d k %d: element %d = %g, portable %g", n, k, at, got.Data[at], want.Data[at])
		}
	})
}
