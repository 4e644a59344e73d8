package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation the kernels are checked
// against.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := NewPool(3)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		got := New(m, n)
		MatMul(pool, got, a, b)
		want := naiveMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: MatMul diff %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulATAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := NewPool(4)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := randomMatrix(rng, k, m), randomMatrix(rng, k, n)
		got := New(m, n)
		MatMulAT(pool, got, a, b)
		want := naiveMatMul(transpose(a), b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: MatMulAT diff %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	pool := NewPool(1)
	cases := []func(){
		func() { MatMul(pool, New(2, 2), New(2, 3), New(2, 2)) },
		func() { MatMulAT(pool, New(2, 2), New(3, 2), New(2, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestMatMulWorkerInvariance is the key determinism property: the result
// must not depend on the pool's worker count.
func TestMatMulWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randomMatrix(rng, 31, 17), randomMatrix(rng, 17, 23)
	ref := New(31, 23)
	MatMul(NewPool(1), ref, a, b)
	for _, w := range []int{2, 3, 5, 8, 64} {
		got := New(31, 23)
		MatMul(NewPool(w), got, a, b)
		if !got.Equal(ref) {
			t.Fatalf("workers=%d produced different result", w)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, MatMul against the naive product.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	pool := NewPool(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		ab := New(m, n)
		MatMul(pool, ab, a, b)
		btat := naiveMatMul(transpose(b), transpose(a))
		return transpose(ab).MaxAbsDiff(btat) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ColSum(A) + ColSum(B) == ColSum(A+B).
func TestQuickColSumLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomMatrix(rng, r, c), randomMatrix(rng, r, c)
		sa, sb := make([]float32, c), make([]float32, c)
		ColSum(sa, a)
		ColSum(sb, b)
		AddScaled(a.Data, b.Data, 1)
		sum := make([]float32, c)
		ColSum(sum, a)
		for j := range sum {
			if math.Abs(float64(sum[j]-(sa[j]+sb[j]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	AddScaled(a.Data, b.Data, 1)
	want := []float32{11, 22, 33}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add: got %v want %v", a.Data, want)
		}
	}
	AddScaled(a.Data, b.Data, -1)
	for i, v := range []float32{1, 2, 3} {
		if a.Data[i] != v {
			t.Fatalf("AddScaled: got %v", a.Data)
		}
	}
}

func TestScale(t *testing.T) {
	m := FromSlice(1, 2, []float32{2, -4})
	Scale(m, 0.5)
	if m.Data[0] != 1 || m.Data[1] != -2 {
		t.Fatalf("Scale: %v", m.Data)
	}
}

func TestAddBiasRow(t *testing.T) {
	row := []float32{0, -5}
	AddBias(NewPool(1), FromSlice(1, 2, row), []float32{1, 2}, false)
	if row[0] != 1 || row[1] != -3 {
		t.Fatalf("AddBias: %v", row)
	}
	AddBias(NewPool(1), FromSlice(1, 2, row), []float32{1, 2}, true)
	if row[0] != 2 || row[1] != 0 {
		t.Fatalf("AddBias with ReLU: %v", row)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a short bias did not panic")
		}
	}()
	AddBias(NewPool(1), FromSlice(1, 2, row), []float32{1}, false)
}

func TestReLUForwardBackward(t *testing.T) {
	src := []float32{-1, 0, 2, -3, 4, 1, -1, 5}
	dst := FromSlice(2, 4, append([]float32(nil), src...))
	AddBias(NewPool(1), dst, make([]float32, 4), true)
	for i, v := range []float32{0, 0, 2, 0, 4, 1, 0, 5} {
		if dst.Data[i] != v {
			t.Fatalf("ReLU: %v", dst.Data)
		}
	}
	grad := FromSlice(2, 4, []float32{5, 6, 7, 8, 1, 2, 3, 4})
	out, sum, want := New(2, 4), make([]float32, 4), make([]float32, 4)
	ReLUBackward(NewPool(1), out, grad, dst, sum)
	for i, v := range []float32{0, 0, 7, 0, 1, 2, 0, 4} {
		if out.Data[i] != v {
			t.Fatalf("ReLUBackward: %v", out.Data)
		}
	}
	ColSum(want, out)
	for j, v := range want {
		if sum[j] != v {
			t.Fatalf("ReLUBackward column sums %v, ColSum %v", sum, want)
		}
	}
}

// reluBranch and reluBackwardBranch are ReLU and ReLUBackward as they
// stood before the branch-free rewrite, kept verbatim as the definition
// of their output bits.
func reluBranch(dst, src *Matrix) {
	for i, v := range src.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

func reluBackwardBranch(dst, grad, act *Matrix) {
	for i, g := range grad.Data {
		if act.Data[i] > 0 {
			dst.Data[i] = g
		} else {
			dst.Data[i] = 0
		}
	}
}

// TestReLUMatchesBranchReference compares AddBias's ReLU and
// ReLUBackward with the branchy loops, bit for bit (NaN payloads
// included), on every pair of edge-case floats and on 1<<20 random bit
// patterns.
func TestReLUMatchesBranchReference(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fffffff, 0xffffffff, // quiet NaNs
		0x7fa00000, 0xffa00000, // signalling NaNs
		0x7f800001, 0xff800001, // the NaNs next to ±Inf
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // smallest and largest subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
	}
	const random = 1 << 20
	n := len(specials)
	act, grad := New(1, n*n+random), New(1, n*n+random)
	for i := 0; i < n*n; i++ {
		act.Data[i], grad.Data[i] = math.Float32frombits(specials[i/n]), math.Float32frombits(specials[i%n])
	}
	rng := rand.New(rand.NewSource(12))
	for i := n * n; i < len(act.Data); i++ {
		act.Data[i], grad.Data[i] = math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32())
	}
	same := func(what string, got, want *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d (act %#08x, grad %#08x) = %#08x, branchy loop %#08x", what, i,
					math.Float32bits(act.Data[i]), math.Float32bits(grad.Data[i]), math.Float32bits(v), math.Float32bits(want.Data[i]))
			}
		}
	}
	want, got := New(1, len(act.Data)), New(1, len(act.Data))
	// With a zero bias the sum is the value itself as far as ReLU goes:
	// only −0 turns into +0, which ReLU maps to +0 anyway.
	for _, bias := range [][]float32{make([]float32, len(act.Data)), grad.Data} {
		for i, v := range act.Data {
			want.Data[i] = v + bias[i]
		}
		reluBranch(want, want)
		copy(got.Data, act.Data)
		AddBias(NewPool(1), got, bias, true)
		same("AddBias", got, want)
	}
	reluBackwardBranch(want, grad, act)
	ReLUBackward(NewPool(1), got, grad, act, make([]float32, len(act.Data)))
	same("ReLUBackward", got, want)
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {5, 3}, {32, 128}} {
		src := randomMatrix(rng, sh[0], sh[1])
		dst := New(sh[1], sh[0])
		dst.Fill(7)
		Transpose(dst, src)
		if !dst.Equal(transpose(src)) {
			t.Fatalf("%dx%d: Transpose %v, want %v", sh[0], sh[1], dst.Data, transpose(src).Data)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose into a same-shape non-square dst did not panic")
		}
	}()
	Transpose(New(2, 3), New(2, 3))
}

func TestSoftmaxRows(t *testing.T) {
	src := FromSlice(2, 3, []float32{1, 1, 1, 1000, 0, -1000})
	dst := New(2, 3)
	SoftmaxRows(dst, src)
	for j := 0; j < 3; j++ {
		if math.Abs(float64(dst.At(0, j))-1.0/3) > 1e-5 {
			t.Fatalf("uniform softmax wrong: %v", dst.Row(0))
		}
	}
	// Extreme logits must not produce NaN/Inf and must concentrate mass.
	if dst.At(1, 0) < 0.999 {
		t.Fatalf("softmax should concentrate: %v", dst.Row(1))
	}
	for _, v := range dst.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax produced NaN/Inf")
		}
	}
}

// Property: softmax rows always sum to 1 and are non-negative.
func TestQuickSoftmaxSimplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(5), 2+rng.Intn(8))
		out := New(m.Rows, m.Cols)
		SoftmaxRows(out, m)
		for i := 0; i < out.Rows; i++ {
			var sum float64
			for _, v := range out.Row(i) {
				if v < 0 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, 7, 0, 7})
	idx := make([]int, 2)
	ArgMaxRows(idx, m)
	if idx[0] != 1 {
		t.Fatalf("ArgMaxRows row0 = %d", idx[0])
	}
	if idx[1] != 0 { // ties resolve to the first maximum
		t.Fatalf("ArgMaxRows tie must pick first: %d", idx[1])
	}
}

func TestColSumLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ColSum(make([]float32, 3), New(2, 2))
}

func TestSoftmaxRowsDegenerateShapes(t *testing.T) {
	// 0 columns: nothing to normalise; must not panic (the old code
	// indexed row[0] unconditionally). 0 rows: trivially a no-op.
	for _, tc := range []struct{ rows, cols int }{{0, 3}, {3, 0}, {0, 0}} {
		src := New(tc.rows, tc.cols)
		dst := New(tc.rows, tc.cols)
		SoftmaxRows(dst, src) // must not panic
	}
}

func TestArgMaxRowsDegenerateShapes(t *testing.T) {
	// 0 rows: no output. 0 columns: no maximum exists; every slot gets
	// the -1 sentinel (the old code indexed row[0] and panicked).
	ArgMaxRows([]int{}, New(0, 4))
	dst := []int{7, 7, 7}
	ArgMaxRows(dst, New(3, 0))
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("dst[%d] = %d, want -1 for a zero-column matrix", i, v)
		}
	}
}

// Scale multiplies every element of m by alpha.
func Scale(m *Matrix, alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}
