package nn

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// tinyBlock builds a hand-checkable block: 2 dst nodes, dst 0 aggregates
// src {2,3}, dst 1 aggregates src {2}.
func tinyBlock() *sampler.Block {
	return &sampler.Block{
		SrcNodes: []graph.NodeID{0, 1, 2, 3},
		NumDst:   2,
		RowPtr:   []int32{0, 2, 3},
		Col:      []int32{2, 3, 2},
	}
}

func TestSAGEForwardHandComputed(t *testing.T) {
	b := tinyBlock()
	l := NewSAGELayer(rand.New(rand.NewSource(1)), 1, 1, false)
	// W = [1; 1], bias 0 → output = self + mean(neighbors).
	l.Weight.W.Data[0], l.Weight.W.Data[1] = 1, 1
	x := tensor.FromSlice(4, 1, []float32{10, 20, 30, 40})
	out := l.Forward(tensor.NewPool(1), b, x)
	// dst0: self 10 + mean(30,40)=35 → 45; dst1: self 20 + 30 → 50.
	if out.At(0, 0) != 45 || out.At(1, 0) != 50 {
		t.Fatalf("SAGE forward = %v, want [45 50]", out.Data)
	}
}

func TestSAGEForwardNoNeighbors(t *testing.T) {
	b := &sampler.Block{
		SrcNodes: []graph.NodeID{0},
		NumDst:   1,
		RowPtr:   []int32{0, 0},
	}
	l := NewSAGELayer(rand.New(rand.NewSource(1)), 2, 3, true)
	x := tensor.FromSlice(1, 2, []float32{1, -1})
	out := l.Forward(tensor.NewPool(1), b, x)
	if out.Rows != 1 || out.Cols != 3 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("isolated node produced NaN")
		}
	}
}

func TestGCNForwardHandComputed(t *testing.T) {
	b := tinyBlock()
	degrees := []int{1, 1, 3, 1} // global degrees of nodes 0..3
	l := NewGCNLayer(rand.New(rand.NewSource(1)), 1, 1, false, degrees)
	l.Weight.W.Data[0] = 1
	x := tensor.FromSlice(4, 1, []float32{10, 20, 30, 40})
	out := l.Forward(tensor.NewPool(1), b, x)
	// dst0 (deg1): self 10/2 + 30/sqrt(2·4) + 40/sqrt(2·2) = 5+10.6066+20
	want0 := 10.0/2 + 30/math.Sqrt(8) + 40/math.Sqrt(4)
	// dst1 (deg1): self 20/2 + 30/sqrt(2·4)
	want1 := 20.0/2 + 30/math.Sqrt(8)
	if math.Abs(float64(out.At(0, 0))-want0) > 1e-4 || math.Abs(float64(out.At(1, 0))-want1) > 1e-4 {
		t.Fatalf("GCN forward = %v, want [%g %g]", out.Data, want0, want1)
	}
}

// modelLoss runs a fresh forward pass and returns the loss — the
// primitive for finite-difference gradient checking.
func modelLoss(m *GNN, pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix, labels []int32) float64 {
	logits := m.Forward(pool, mb, x0)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// checkGradients compares analytic parameter gradients against central
// finite differences on a sample of entries.
func checkGradients(t *testing.T, m *GNN, mb *sampler.MiniBatch, x0 *tensor.Matrix, labels []int32) {
	t.Helper()
	checkGradientsAt(t, 1e-2, m, mb, x0, labels)
}

// checkGradientsAt is checkGradients with a finite-difference step eps.
func checkGradientsAt(t *testing.T, eps float32, m *GNN, mb *sampler.MiniBatch, x0 *tensor.Matrix, labels []int32) {
	t.Helper()
	pool := tensor.NewPool(1)
	m.ZeroGrad()
	logits := m.Forward(pool, mb, x0)
	_, dLogits := SoftmaxCrossEntropy(logits, labels)
	m.Backward(pool, dLogits)

	rng := rand.New(rand.NewSource(99))
	checked, failures := 0, 0
	for _, p := range m.Params() {
		n := len(p.W.Data)
		samples := 8
		if samples > n {
			samples = n
		}
		for s := 0; s < samples; s++ {
			k := rng.Intn(n)
			orig := p.W.Data[k]
			p.W.Data[k] = orig + eps
			lp := modelLoss(m, pool, mb, x0, labels)
			p.W.Data[k] = orig - eps
			lm := modelLoss(m, pool, mb, x0, labels)
			p.W.Data[k] = orig
			numeric := (lp - lm) / (2 * float64(eps))
			analytic := float64(p.Grad.Data[k])
			if math.Abs(analytic) < 5e-4 && math.Abs(numeric) < 5e-4 {
				continue // both ~zero: uninformative in float32
			}
			checked++
			rel := math.Abs(numeric-analytic) / math.Max(math.Abs(numeric), math.Abs(analytic))
			if rel > 0.08 {
				failures++
				t.Logf("%s[%d]: analytic %g numeric %g rel %g", p.Name, k, analytic, numeric, rel)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("gradient check exercised only %d entries", checked)
	}
	if failures > checked/10 {
		t.Fatalf("gradient check: %d/%d entries disagree", failures, checked)
	}
}

func gradCheckSetup(t *testing.T, kind ModelKind, useShadow bool) (*GNN, *sampler.MiniBatch, *tensor.Matrix, []int32) {
	t.Helper()
	g, labels, err := graph.Generate(graph.GenSpec{
		NumNodes: 80, NumEdges: 500, NumClasses: 3, Homophily: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	feats := tensor.New(g.NumNodes, 5)
	// GIN's unnormalised sum aggregation explodes activations on dense
	// subgraphs (real deployments add batch norm); small inputs keep the
	// float32 finite-difference numerics meaningful.
	scale := 1.0
	if kind == KindGIN {
		scale = 0.05
	}
	for i := range feats.Data {
		feats.Data[i] = float32(rng.NormFloat64() * scale)
	}
	targets := []graph.NodeID{1, 5, 9, 14, 23, 31}
	var mb *sampler.MiniBatch
	var layers int
	if useShadow {
		sh := sampler.NewShaDow(g, []int{4, 3}, 2)
		mb = sh.Sample(rng, targets)
		layers = 2
	} else {
		ns := sampler.NewNeighbor(g, []int{4, 3})
		mb = ns.Sample(rng, targets)
		layers = 2
	}
	_ = layers
	m, err := NewModel(ModelSpec{Kind: kind, Dims: []int{5, 6, 3}, Seed: 9}, Degrees(g))
	if err != nil {
		t.Fatal(err)
	}
	// Disable ReLU so the model is smooth: finite differences then check
	// the aggregation/concat/scatter plumbing exactly, without kink noise.
	// ReLU's own gradient is covered by tensor.ReLUBackward tests and by
	// TestGradientsSAGEWithReLU below.
	for _, l := range m.Layers {
		l.Relu = false
	}
	x0 := GatherPooled(nil, feats, mb.InputNodes())
	batchLabels := make([]int32, len(targets))
	for i, v := range targets {
		batchLabels[i] = labels[v]
	}
	return m, mb, x0, batchLabels
}

func TestGradientsSAGENeighbor(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindSAGE, false)
	checkGradients(t, m, mb, x0, labels)
}

func TestGradientsGCNNeighbor(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindGCN, false)
	checkGradients(t, m, mb, x0, labels)
}

func TestGradientsSAGEShadow(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindSAGE, true)
	checkGradients(t, m, mb, x0, labels)
}

func TestGradientsGCNShadow(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindGCN, true)
	checkGradients(t, m, mb, x0, labels)
}

// One end-to-end check with ReLU enabled. The step is 1e-3, not 1e-2:
// this batch has a hidden pre-activation within 1e-2 of zero, and a
// central difference across a ReLU kink measures neither side's slope.
func TestGradientsSAGEWithReLU(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindSAGE, false)
	for _, l := range m.Layers {
		if l.OutDim != 3 {
			l.Relu = true
		}
	}
	checkGradientsAt(t, 1e-3, m, mb, x0, labels)
}

// The forward pass must not depend on the pool's worker count.
func TestForwardWorkerInvariance(t *testing.T) {
	m1, mb, x0, _ := gradCheckSetup(t, KindSAGE, false)
	ref := m1.Forward(tensor.NewPool(1), mb, x0).Clone()
	for _, w := range []int{2, 4, 8} {
		got := m1.Forward(tensor.NewPool(w), mb, x0)
		if got.MaxAbsDiff(ref) != 0 {
			t.Fatalf("workers=%d changed forward output", w)
		}
	}
}

func TestBackwardAccumulatesAcrossBatches(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindSAGE, false)
	pool := tensor.NewPool(1)
	m.ZeroGrad()
	logits := m.Forward(pool, mb, x0)
	_, d := SoftmaxCrossEntropy(logits, labels)
	m.Backward(pool, d)
	g1 := m.Params()[0].Grad.Clone()
	// Second identical backward must double the accumulator.
	logits = m.Forward(pool, mb, x0)
	_, d = SoftmaxCrossEntropy(logits, labels)
	m.Backward(pool, d)
	g2 := m.Params()[0].Grad
	for k := range g1.Data {
		g1.Data[k] *= 2
	}
	if g1.MaxAbsDiff(g2) > 1e-5 {
		t.Fatal("gradients must accumulate additively")
	}
}

func TestGINForwardHandComputed(t *testing.T) {
	b := tinyBlock()
	l := NewGINLayer(rand.New(rand.NewSource(1)), 1, 1, false)
	l.agg = ginAgg{epsilon: 0.5}
	l.Weight.W.Data[0] = 1
	x := tensor.FromSlice(4, 1, []float32{10, 20, 30, 40})
	out := l.Forward(tensor.NewPool(1), b, x)
	// dst0: 1.5·10 + (30+40) = 85; dst1: 1.5·20 + 30 = 60.
	if out.At(0, 0) != 85 || out.At(1, 0) != 60 {
		t.Fatalf("GIN forward = %v, want [85 60]", out.Data)
	}
}

func TestGradientsGINNeighbor(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindGIN, false)
	checkGradients(t, m, mb, x0, labels)
}

func TestGradientsGINShadow(t *testing.T) {
	m, mb, x0, labels := gradCheckSetup(t, KindGIN, true)
	checkGradients(t, m, mb, x0, labels)
}
