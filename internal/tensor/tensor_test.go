package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero the data")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	m.Set(1, 0, 9)
	if d[3] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, make([]float32, 5))
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 7)
	if m.At(0, 1) != 7 {
		t.Fatal("At/Set disagree")
	}
	r := m.Row(0)
	r[0] = 5
	if m.At(0, 0) != 5 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone must deep-copy")
	}
	if !c.Equal(m) == (c.At(0, 0) == m.At(0, 0)) {
		t.Fatal("Equal inconsistent with element diff")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	a.Fill(4)
	b := New(2, 2)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	b.CopyFrom(New(3, 2))
}

func TestZeroFill(t *testing.T) {
	m := New(2, 3)
	m.Fill(2.5)
	for _, v := range m.Data {
		if v != 2.5 {
			t.Fatal("Fill failed")
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestEqualShapes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes must not be Equal")
	}
	a, b := New(2, 2), New(2, 2)
	if !a.Equal(b) {
		t.Fatal("zero matrices must be Equal")
	}
	b.Set(1, 1, 1e-9)
	if a.Equal(b) {
		t.Fatal("Equal must be exact")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	b.Set(0, 1, -3)
	if d := a.MaxAbsDiff(b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
}

// CopyFrom copies src into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}
