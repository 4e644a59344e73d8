package nn

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

var backwardCases = []struct {
	kind   ModelKind
	shadow bool
}{
	{KindSAGE, false}, {KindSAGE, true},
	{KindGCN, false}, {KindGCN, true},
	{KindGIN, false}, {KindGIN, true},
}

// TestParamGradsIndependentOfInputGradient: skipping the first layer's
// input gradient must not move a single bit of any parameter gradient,
// for every layer kind on block and ShaDow batches — the property that
// lets the exact regime call Backward while the local regime calls
// BackwardInput and both stay on one loss trajectory.
func TestParamGradsIndependentOfInputGradient(t *testing.T) {
	for _, tc := range backwardCases {
		m, mb, x0, labels := gradCheckSetup(t, tc.kind, tc.shadow)
		m.Layers[0].Relu = true // exercise the ReLU (dZ) path too
		pool := tensor.NewPool(2)
		grads := func(withInput bool) ([]*tensor.Matrix, *tensor.Matrix) {
			m.ZeroGrad()
			logits := m.Forward(pool, mb, x0)
			_, dLogits := SoftmaxCrossEntropy(logits, labels)
			var dX *tensor.Matrix
			if withInput {
				dX = m.BackwardInput(pool, dLogits)
			} else {
				dX = m.Backward(pool, dLogits)
			}
			var out []*tensor.Matrix
			for _, p := range m.Params() {
				out = append(out, p.Grad.Clone())
			}
			return out, dX
		}
		without, none := grads(false)
		with, dX := grads(true)
		if none != nil {
			t.Fatalf("%s shadow=%v: Backward returned an input gradient", tc.kind, tc.shadow)
		}
		if dX == nil || dX.Rows != len(mb.InputNodes()) || dX.Cols != x0.Cols {
			t.Fatalf("%s shadow=%v: BackwardInput returned %v, want %dx%d", tc.kind, tc.shadow, dX, len(mb.InputNodes()), x0.Cols)
		}
		if tensor.FrobeniusNorm(dX) == 0 {
			t.Fatalf("%s shadow=%v: input gradient is all zero", tc.kind, tc.shadow)
		}
		for i := range with {
			if !bitsEqual(with[i], without[i]) {
				t.Fatalf("%s shadow=%v: gradient of %s differs with the input gradient requested",
					tc.kind, tc.shadow, m.Params()[i].Name)
			}
		}
	}
}

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

// TestInputGradientFiniteDifference checks BackwardInput's result — the
// value the local regime routes to halo owners — against central
// differences on sampled input features.
func TestInputGradientFiniteDifference(t *testing.T) {
	for _, tc := range backwardCases {
		m, mb, x0, labels := gradCheckSetup(t, tc.kind, tc.shadow)
		pool := tensor.NewPool(1)
		logits := m.Forward(pool, mb, x0)
		_, dLogits := SoftmaxCrossEntropy(logits, labels)
		dX := m.BackwardInput(pool, dLogits)
		rng := rand.New(rand.NewSource(5))
		const eps = 1e-2
		checked := 0
		for s := 0; s < 32; s++ {
			k := rng.Intn(len(x0.Data))
			orig := x0.Data[k]
			x0.Data[k] = orig + eps
			lp := modelLoss(m, pool, mb, x0, labels)
			x0.Data[k] = orig - eps
			lm := modelLoss(m, pool, mb, x0, labels)
			x0.Data[k] = orig
			numeric, analytic := (lp-lm)/(2*eps), float64(dX.Data[k])
			if math.Abs(analytic) < 5e-4 && math.Abs(numeric) < 5e-4 {
				continue // both ~zero: uninformative in float32
			}
			checked++
			if rel := math.Abs(numeric-analytic) / math.Max(math.Abs(numeric), math.Abs(analytic)); rel > 0.08 {
				t.Fatalf("%s shadow=%v: dX[%d] analytic %g, numeric %g", tc.kind, tc.shadow, k, analytic, numeric)
			}
		}
		if checked < 5 {
			t.Fatalf("%s shadow=%v: input-gradient check exercised only %d entries", tc.kind, tc.shadow, checked)
		}
	}
}
