package tensor

import "sync"

// BufPool recycles Matrix backing storage across batches. Training and
// serving process one batch after another with the same layer shapes, so
// every per-batch matrix (aggregation buffers, activations, gradient
// scratch) can come out of a pool instead of the heap — in steady state
// the hot path performs zero matrix allocations.
//
// Buffers are keyed by column count: a layer's row count varies with the
// batch while its feature width is fixed, so same-width buffers are
// interchangeable (the backing slice is grown once to the largest batch
// and reused thereafter). Get returns zeroed storage, preserving New's
// semantics for accumulation kernels; GetDirty skips the zero fill for
// callers that overwrite every element.
//
// A nil *BufPool is valid and falls back to plain allocation: Get
// behaves like New and Put is a no-op. That keeps pooling an opt-in for
// code (and tests) that construct layers directly.
//
// BufPool is safe for concurrent use. The one ownership rule: after Put,
// the caller must not touch the matrix again — the same storage may be
// handed to the next Get.
type BufPool struct {
	mu    sync.Mutex
	byCol map[int]*sync.Pool
}

// NewBufPool returns an empty buffer pool.
func NewBufPool() *BufPool {
	return &BufPool{byCol: make(map[int]*sync.Pool)}
}

func (bp *BufPool) pool(cols int) *sync.Pool {
	bp.mu.Lock()
	p := bp.byCol[cols]
	if p == nil {
		p = &sync.Pool{}
		bp.byCol[cols] = p
	}
	bp.mu.Unlock()
	return p
}

// Get returns a zeroed rows×cols matrix, reusing pooled storage of the
// same width when available. On a nil pool it is exactly New.
func (bp *BufPool) Get(rows, cols int) *Matrix {
	m := bp.GetDirty(rows, cols)
	m.Zero()
	return m
}

// GetDirty is Get without the zero fill, for a caller that writes every
// element before it reads any: reused storage holds what its last user
// left there.
func (bp *BufPool) GetDirty(rows, cols int) *Matrix {
	if bp == nil {
		return New(rows, cols)
	}
	v := bp.pool(cols).Get()
	if v == nil {
		return New(rows, cols)
	}
	m := v.(*Matrix)
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:need]
	return m
}

// Put returns m's storage to the pool for reuse by a later same-width
// Get. Put accepts matrices from any source (not just Get), tolerates
// nil, and ignores zero-width matrices. The caller must not use m after
// Put.
func (bp *BufPool) Put(m *Matrix) {
	if bp == nil || m == nil || m.Cols <= 0 || cap(m.Data) == 0 {
		return
	}
	bp.pool(m.Cols).Put(m)
}
