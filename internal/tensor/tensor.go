// Package tensor provides dense float32 matrices and the parallel kernels
// the GNN training stack is built on. It is a deliberately small substrate:
// row-major matrices, three dense products (a·b, a·bᵀ, aᵀ·b) written as
// plain Go loops — register-accumulated and ordered for the cache, but
// not blocked over the reduction — parallelised over a bounded worker
// pool, and the handful of elementwise and reduction kernels
// backpropagation needs. With AVX2 on amd64 the row loops (products,
// neighbour sum, bias and ReLU, ReLU backward, scatter) run in assembly
// that computes the same bits (simd_amd64.s), the products in AVX-512
// where the CPU has it; Go loops are the fallback.
//
// Everything is deterministic: a kernel may choose which output element
// it works on when, but never reorders the floating-point reduction that
// produces an element, so results are bit-identical for any worker
// count; random initialisation takes an explicit source.
package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New to allocate one with a shape.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying.
// The slice length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() { clear(m.Data) }

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have the same shape and identical
// elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if other.Data[i] != v {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other. The shapes must match.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, v := range m.Data {
		d := float64(v - other.Data[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
