package nn

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// TestInputGradientSkipsZeroGradient: the input gradient follows the
// dense products' zero-skip rule, so an output column whose gradient is
// zero contributes nothing — not 0·Inf = NaN — even where its weight is
// infinite.
func TestInputGradientSkipsZeroGradient(t *testing.T) {
	b := &sampler.Block{
		SrcNodes: []graph.NodeID{0, 1, 2},
		NumDst:   2,
		RowPtr:   []int32{0, 1, 2},
		Col:      []int32{2, 0},
	}
	for _, relu := range []bool{false, true} {
		l := NewSAGELayer(rand.New(rand.NewSource(1)), 3, 4, relu)
		pool := tensor.NewPool(1)
		l.Forward(pool, b, randFeatures(3, 3, 2))
		const col = 2
		l.Weight.W.Set(1, col, float32(math.Inf(1)))
		dOut := tensor.New(b.NumDst, 4)
		dOut.Fill(1)
		for i := 0; i < dOut.Rows; i++ {
			dOut.Set(i, col, 0)
		}
		dX := l.Backward(pool, b, dOut, true)
		for k, v := range dX.Data {
			if math.IsNaN(float64(v)) {
				t.Fatalf("relu=%v: dX[%d] is NaN: a zero gradient met the infinite weight", relu, k)
			}
		}
	}
}
