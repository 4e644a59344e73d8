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
			portableKernels.use(t)
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

// rowKernel names one way the row loops can run: set puts it in charge,
// whatever start-up selected, and returns what puts the previous
// selection back. simdKernels lists the dense kernels this CPU has
// besides the portable loops.
type rowKernel struct {
	name string
	set  func() (restore func())
}

// use puts k in charge for the rest of tb.
func (k rowKernel) use(tb testing.TB) { tb.Cleanup(k.set()) }

// portableKernels is the Go row loops, all six.
var portableKernels = rowKernel{"portable", func() func() {
	m, at, ad := matMulRows, matMulATRows, addRows
	ab, rb, sc := addBiasRows, reluBackwardCols, scatterRows
	matMulRows, matMulATRows, addRows = matMulRowsGo, matMulATRowsGo, addRowsGo
	addBiasRows, reluBackwardCols, scatterRows = addBiasRowsGo, reluBackwardColsGo, scatterRowsGo
	return func() {
		matMulRows, matMulATRows, addRows = m, at, ad
		addBiasRows, reluBackwardCols, scatterRows = ab, rb, sc
	}
}}

// The tests below compare the row loops start-up selected — the AVX2
// ones on an amd64 CPU that has them, and every dense kernel the CPU has
// (simdKernels) — with the portable Go loops, on
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

// TestSelectedRowKernelsBitEqualPortable runs each dense kernel the CPU
// has at every row count modulo the AVX-512 kernel's four-row pass, on
// row ranges that start and end inside a pass.
func TestSelectedRowKernelsBitEqualPortable(t *testing.T) {
	kernels := simdKernels()
	for m := 1; m <= 9; m++ {
		// 8 and 64: the AVX2 row loop's group and chunk; 64 also MatMulAT's p block
		ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 24, 63, 64, 65, 130}
		if m != 5 { // AVX2's depth cases need one row count; the four-row pass, MatMulAT's p blocks
			ks = []int{0, 1, 7, 8, 16, 63, 64, 65, 130}
		}
		for n := 0; n <= 72; n++ {
			for _, k := range ks {
				for _, pattern := range []string{"third", "specials", "relu"} {
					if pattern == "relu" && k != 16 && k != 24 {
						continue
					}
					rowKernelsBitEqualPortable(t, kernels, m, k, n, pattern)
				}
			}
		}
	}
}

func rowKernelsBitEqualPortable(t *testing.T, kernels []rowKernel, m, k, n int, pattern string) {
	rng := rand.New(rand.NewSource(int64(m*100003 + n*1009 + k)))
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
	compare := func(what string, got, want *Matrix, check func(*testing.T, string)) {
		t.Helper()
		what += fmt.Sprintf(" %dx%dx%d %s", m, k, n, pattern)
		check(t, what)
		if at, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: element %d = %g, portable %g", what, at, got.Data[at], want.Data[at])
		}
	}
	// Rows outside [lo, hi) keep what they held.
	for _, r := range [][2]int{{0, m}, {1, m}, {m / 2, m / 2}, {min(2, m), max(2, m-1)}} {
		lo, hi := r[0], min(r[1], m)
		for _, c := range []struct {
			name      string
			run, port func(dst *Matrix)
		}{
			{"matMulRows", func(d *Matrix) { matMulRows(d, a, b, lo, hi) }, func(d *Matrix) { matMulRowsGo(d, a, b, lo, hi) }},
			{"matMulATRows", func(d *Matrix) { matMulATRows(d, at, b, lo, hi) }, func(d *Matrix) { matMulATRowsGo(d, at, b, lo, hi) }},
		} {
			want := init.Clone()
			c.port(want)
			for _, kern := range kernels {
				got, check := fenced(init)
				restore := kern.set()
				c.run(got)
				restore()
				compare(fmt.Sprintf("%s [%d, %d) on %s", c.name, lo, hi, kern.name), got, want, check)
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
				c := []float32{1, 1 / float32(max(1, count))}[count%2] // sum, and mean on odd counts
				what := fmt.Sprintf("addRows %d rows of width %d, scaled by %g, specials=%v", count, n, c, specials)
				got, check := fenced(init)
				want := init.Clone()
				addRows(got.Data, x, ids, c)
				addRowsGo(want.Data, x, ids, c)
				check(t, what)
				if at, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: element %d = %g, portable %g", what, at, got.Data[at], want.Data[at])
				}
			}
		}
	}
}

// TestRowKernelShapeMismatchPanics: a wrong length or row is a panic on
// either path, never a read or write past a row (the row slices keep
// their capacity to the end of the matrix's Data).
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
			portableKernels.use(t)
		}
		mustPanic("AddRows with a long dst", func() { AddRows(make([]float32, 9), x, []int32{0}, 1) })
		mustPanic("AddRows with a short dst", func() { AddRows(make([]float32, 7), x, []int32{0}, 1) })
		mustPanic("AddRows past the last row", func() { AddRows(make([]float32, 8), x, []int32{0, 6}, 1) })
		mustPanic("AddRows with a negative row", func() { AddRows(make([]float32, 8), x, []int32{-1}, 1) })
		mustPanic("ScatterRows with a short src", func() { ScatterRows(x, []int32{0}, make([]float32, 7), 1) })
		mustPanic("ScatterRows past the last row", func() { ScatterRows(x, []int32{0, 6}, make([]float32, 8), 1) })
		mustPanic("ScatterRows with a negative row", func() { ScatterRows(x, []int32{-1}, make([]float32, 8), 1) })
		mustPanic("AddScaled with a long src", func() { AddScaled(make([]float32, 8), make([]float32, 9), 1) })
		mustPanic("AddBias with a short bias", func() { AddBias(NewPool(2), x, make([]float32, 7), true) })
		mustPanic("ReLUBackward with a short colSum", func() { ReLUBackward(NewPool(2), x, b, b, make([]float32, 7)) })
	}
}

// FuzzDenseKernelPaths feeds the dense kernels raw bit patterns —
// denormals, NaNs, infinities, whatever the fuzzer finds — at a fuzzed
// width and 1–7 rows of a and of aᵀ, and holds matMulRows and
// matMulATRows on every dense kernel the CPU has, which the log names,
// to the portable loops. One row is a single contiguous row of a, in
// both layouts; past a depth of 64 the aᵀ product adds into what the
// first block left in dst.
func FuzzDenseKernelPaths(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127, 0, 0, 128, 255})
	f.Add(uint8(33), uint8(3), []byte("a, then as much of b as the bytes reach"))
	kernels := simdKernels()
	for _, kern := range kernels {
		f.Logf("dense kernel under test: %s", kern.name)
	}
	if len(kernels) == 0 {
		f.Log("no SIMD dense kernel on this CPU: nothing to compare")
	}
	f.Fuzz(func(t *testing.T, width, rowCount uint8, raw []byte) {
		n := int(width % 80)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		// vals holds k entries of a, then k rows of b.
		k := len(vals) / (1 + n)
		b := unaligned(FromSlice(k, n, vals[k:k+k*n]))
		// m rows of a, and of a k×m aᵀ: row i is a rotated by i entries.
		m := 1 + int(rowCount%7)
		rows := make([]float32, m*k)
		for i := range rows {
			rows[i] = vals[(i/k+i%k)%max(1, k)]
		}
		am, at := unaligned(FromSlice(m, k, rows)), unaligned(FromSlice(k, m, rows))
		for _, kern := range kernels {
			kern.use(t) // cleanups run last first, so the selected kernels come back
			for _, c := range []struct {
				name      string
				run, port func(dst *Matrix)
			}{
				{"matMulRows", func(d *Matrix) { matMulRows(d, am, b, 0, m) }, func(d *Matrix) { matMulRowsGo(d, am, b, 0, m) }},
				{"matMulATRows", func(d *Matrix) { matMulATRows(d, at, b, 0, m) }, func(d *Matrix) { matMulATRowsGo(d, at, b, 0, m) }},
			} {
				what := fmt.Sprintf("%s on %s, %d rows, width %d, k %d", c.name, kern.name, m, n, k)
				got, check := fenced(New(m, n))
				want := New(m, n)
				c.run(got)
				c.port(want)
				check(t, what)
				if at, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: element %d = %g, portable %g", what, at, got.Data[at], want.Data[at])
				}
			}
		}
	})
}

// The per-element passes — bias and ReLU, ReLU backward with the column
// sums, the backward scatter — must match the portable loops in every
// bit, NaN payloads included: their operand order is part of what the
// assembly reproduces (see ops.go).

// nanBits returns a NaN with the given payload, quiet or signalling by
// the payload's top bit.
func nanBits(payload uint32) float32 {
	return math.Float32frombits(0x7f800000 | payload&0x807fffff | 1)
}

// sprinklePayloads overwrites about one element in four of data with
// NaNs of random payload and sign, ±0 and ±Inf: dense enough that both
// operands of an add are often NaNs with different payloads.
func sprinklePayloads(rng *rand.Rand, data []float32) {
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = nanBits(rng.Uint32())
		case 1:
			data[i] = []float32{0, negZero, inf, -inf}[rng.Intn(4)]
		}
	}
}

// sameAllBits is sameBits with NaN payloads compared too.
func sameAllBits(a, b []float32) (int, bool) {
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// epilogueCase runs one kernel on the selected and on the portable path
// from the same inputs, on fenced storage, and compares every bit of
// every output.
func epilogueCase(t *testing.T, what string, outs []*Matrix, run func(outs []*Matrix, portable bool)) {
	t.Helper()
	got, want := make([]*Matrix, len(outs)), make([]*Matrix, len(outs))
	checks := make([]func(*testing.T, string), len(outs))
	for i, m := range outs {
		got[i], checks[i] = fenced(m)
		want[i] = m.Clone()
	}
	run(got, false)
	run(want, true)
	for i := range outs {
		checks[i](t, what)
		if at, ok := sameAllBits(got[i].Data, want[i].Data); !ok {
			t.Fatalf("%s: output %d element %d = %#08x, portable %#08x", what, i, at,
				math.Float32bits(got[i].Data[at]), math.Float32bits(want[i].Data[at]))
		}
	}
}

func TestSelectedEpiloguesBitEqualPortable(t *testing.T) {
	for n := 0; n <= 72; n++ {
		for _, rows := range []int{0, 1, 2, 5, 9} {
			for _, specials := range []bool{false, true} {
				what := fmt.Sprintf("%d rows of width %d specials=%v", rows, n, specials)
				rng := rand.New(rand.NewSource(int64(n*1009 + rows*31)))
				x, grad, act := randomMatrix(rng, rows, n), randomMatrix(rng, rows, n), randomMatrix(rng, rows, n)
				bias, src, sum := randomMatrix(rng, 1, n), randomMatrix(rng, 1, n), randomMatrix(rng, 1, n)
				c := float32(rng.NormFloat64())
				if specials {
					for _, m := range []*Matrix{x, grad, act, bias, src, sum} {
						sprinklePayloads(rng, m.Data)
					}
					c = []float32{nanBits(rng.Uint32()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), c}[rng.Intn(5)]
				}
				bias, src, grad, act = unaligned(bias), unaligned(src), unaligned(grad), unaligned(act)
				for _, relu := range []bool{false, true} {
					epilogueCase(t, fmt.Sprintf("addBiasRows relu=%v, %s", relu, what), []*Matrix{x}, func(o []*Matrix, portable bool) {
						if portable {
							addBiasRowsGo(o[0].Data, bias.Data, relu)
						} else {
							addBiasRows(o[0].Data, bias.Data, relu)
						}
					})
				}
				// Whole rows and column blocks of 8: the columns outside
				// [lo, hi) keep what they held, in dst and in the sums.
				for _, r := range [][2]int{{0, n}, {0, min(n, 8)}, {min(n, 8), n}, {min(n, 8), min(n, 24)}} {
					lo, hi := r[0], r[1]
					epilogueCase(t, fmt.Sprintf("reluBackwardCols [%d, %d), %s", lo, hi, what), []*Matrix{x, sum}, func(o []*Matrix, portable bool) {
						if portable {
							reluBackwardColsGo(o[0], grad, act, o[1].Data, lo, hi)
						} else {
							reluBackwardCols(o[0], grad, act, o[1].Data, lo, hi)
						}
					})
				}
				for count := 0; count <= 4 && rows > 0; count++ {
					ids := make([]int32, count)
					for i := range ids {
						ids[i] = int32(rng.Intn(rows))
					}
					if count > 1 {
						ids[0], ids[1] = int32(rows-1), int32(rows-1) // the last row, twice
					}
					epilogueCase(t, fmt.Sprintf("scatterRows %v c=%#08x, %s", ids, math.Float32bits(c), what), []*Matrix{x}, func(o []*Matrix, portable bool) {
						if portable {
							scatterRowsGo(o[0].Data, ids, src.Data, c)
						} else {
							scatterRows(o[0].Data, ids, src.Data, c)
						}
					})
				}
			}
		}
	}
}

// TestEpilogueOperandOrder feeds every add and multiply of the three
// passes two NaNs of different payloads, so the result's payload tells
// which operand came first: an assembly lane that swaps them fails here
// even where the sprinkled sweep happens not to pair two NaNs.
func TestEpilogueOperandOrder(t *testing.T) {
	p, q, r := nanBits(0x11), nanBits(0x400022), nanBits(0x33) // r is signalling
	for _, n := range []int{1, 8, 10, 32, 40, 64} {
		fill := func(rows int, v float32) *Matrix {
			m := New(rows, n)
			m.Fill(v)
			return m
		}
		// bias + row with both NaNs: no ReLU, which would drop the payload.
		row, bias := fill(3, p), fill(1, q)
		epilogueCase(t, fmt.Sprintf("addBiasRows width %d", n), []*Matrix{row}, func(o []*Matrix, portable bool) {
			if portable {
				addBiasRowsGo(o[0].Data, bias.Data, false)
			} else {
				addBiasRows(o[0].Data, bias.Data, false)
			}
		})
		// Row 0 brings one NaN into the sums, row 1 another.
		grad, act := fill(2, p), fill(2, 1)
		copy(grad.Row(1), fill(1, r).Data)
		epilogueCase(t, fmt.Sprintf("reluBackwardCols width %d", n), []*Matrix{fill(2, 0), fill(1, 0)}, func(o []*Matrix, portable bool) {
			if portable {
				reluBackwardColsGo(o[0], grad, act, o[1].Data, 0, n)
			} else {
				reluBackwardCols(o[0], grad, act, o[1].Data, 0, n)
			}
		})
		// src·c with both NaNs, then that product + a NaN row of dst.
		src := fill(1, q)
		epilogueCase(t, fmt.Sprintf("scatterRows width %d", n), []*Matrix{fill(2, p)}, func(o []*Matrix, portable bool) {
			if portable {
				scatterRowsGo(o[0].Data, []int32{1, 0, 1}, src.Data, r)
			} else {
				scatterRows(o[0].Data, []int32{1, 0, 1}, src.Data, r)
			}
		})
	}
	// The cases above can tell the orders apart only if the hardware
	// keeps the first NaN's payload.
	if x, y := addNoinline(p, q), addNoinline(q, p); math.Float32bits(x) == math.Float32bits(y) {
		t.Fatalf("%#08x + %#08x and the reverse both give %#08x: the NaN cases pin nothing", math.Float32bits(p), math.Float32bits(q), math.Float32bits(x))
	}
}

// addNoinline adds at run time: the compiler folds constant NaNs by
// rules of its own.
//
//go:noinline
func addNoinline(a, b float32) float32 { return a + b }

// TestEpiloguesSplitOverWorkers: AddBias splits over rows and
// ReLUBackward over blocks of 8 columns; neither moves a bit.
func TestEpiloguesSplitOverWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{7, 20, 32, 65} {
		x, grad, act, bias := randomMatrix(rng, 37, n), randomMatrix(rng, 37, n), randomMatrix(rng, 37, n), randomMatrix(rng, 1, n)
		sprinklePayloads(rng, grad.Data)
		wantX, wantD, wantSum := x.Clone(), New(37, n), make([]float32, n)
		AddBias(NewPool(1), wantX, bias.Data, true)
		ReLUBackward(NewPool(1), wantD, grad, act, wantSum)
		for _, workers := range []int{2, 3, 4, 8} {
			gotX, gotD, gotSum := x.Clone(), New(37, n), make([]float32, n)
			AddBias(NewPool(workers), gotX, bias.Data, true)
			ReLUBackward(NewPool(workers), gotD, grad, act, gotSum)
			for what, pair := range map[string][2][]float32{"AddBias": {gotX.Data, wantX.Data}, "ReLUBackward": {gotD.Data, wantD.Data}, "column sums": {gotSum, wantSum}} {
				if at, ok := sameAllBits(pair[0], pair[1]); !ok {
					t.Fatalf("width %d, %d workers: %s element %d = %g, one worker %g", n, workers, what, at, pair[0][at], pair[1][at])
				}
			}
		}
	}
}

// FuzzEpiloguePaths feeds the three per-element passes raw bit patterns
// at a fuzzed width, selected path against portable loop.
func FuzzEpiloguePaths(f *testing.F) {
	f.Add(uint8(10), []byte{0, 0, 128, 63, 0, 0, 0, 128, 1, 0, 192, 127, 2, 0, 192, 127, 0, 0, 128, 255, 3, 0, 160, 255})
	f.Add(uint8(33), []byte("a bias or src row, a scale, then rows of dst, grad and act as far as the bytes reach"))
	f.Fuzz(func(t *testing.T, width uint8, raw []byte) {
		n := int(width%80) + 1
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		// vals holds a row of n (bias, and src), a scale c, then three
		// rows×n matrices: dst, grad and act.
		if len(vals) < n+1 {
			return
		}
		rows := (len(vals) - n - 1) / (3 * n)
		row, c, rest := unaligned(FromSlice(1, n, vals[:n])), vals[n], vals[n+1:]
		x := FromSlice(rows, n, rest[:rows*n])
		grad, act := unaligned(FromSlice(rows, n, rest[rows*n:2*rows*n])), unaligned(FromSlice(rows, n, rest[2*rows*n:3*rows*n]))
		ids := make([]int32, 0, len(raw)%7)
		for i := 0; i < cap(ids) && rows > 0; i++ {
			ids = append(ids, int32(int(raw[i])%rows))
		}
		relu := width&0x80 != 0
		epilogueCase(t, "addBiasRows", []*Matrix{x}, func(o []*Matrix, portable bool) {
			if portable {
				addBiasRowsGo(o[0].Data, row.Data, relu)
			} else {
				addBiasRows(o[0].Data, row.Data, relu)
			}
		})
		epilogueCase(t, "reluBackwardCols", []*Matrix{x, New(1, n)}, func(o []*Matrix, portable bool) {
			if portable {
				reluBackwardColsGo(o[0], grad, act, o[1].Data, 0, n)
			} else {
				reluBackwardCols(o[0], grad, act, o[1].Data, 0, n)
			}
		})
		epilogueCase(t, fmt.Sprintf("scatterRows %v", ids), []*Matrix{x}, func(o []*Matrix, portable bool) {
			if portable {
				scatterRowsGo(o[0].Data, ids, row.Data, c)
			} else {
				scatterRows(o[0].Data, ids, row.Data, c)
			}
		})
	})
}
