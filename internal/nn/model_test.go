package nn

import (
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{5}}, nil); err == nil {
		t.Fatal("expected error for too-short dims")
	}
	if _, err := NewModel(ModelSpec{Kind: KindGCN, Dims: []int{5, 3}}, nil); err == nil {
		t.Fatal("GCN without degrees must error")
	}
	if _, err := NewModel(ModelSpec{Kind: "mlp", Dims: []int{5, 3}}, nil); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestModelReplicaDeterminism(t *testing.T) {
	spec := ModelSpec{Kind: KindSAGE, Dims: []int{4, 8, 3}, Seed: 42}
	a, err := NewModel(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) || len(pa) != 4 { // 2 layers × (W, b)
		t.Fatalf("param counts: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].W.MaxAbsDiff(pb[i].W) != 0 {
			t.Fatalf("param %d differs across replicas with same seed", i)
		}
	}
	c, _ := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{4, 8, 3}, Seed: 43}, nil)
	if pa[0].W.MaxAbsDiff(c.Params()[0].W) == 0 {
		t.Fatal("different seeds must give different init")
	}
}

func TestForwardShapes(t *testing.T) {
	g, _, err := graph.Generate(graph.GenSpec{NumNodes: 60, NumEdges: 400, NumClasses: 3, Seed: 3, Homophily: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	feats := tensor.New(g.NumNodes, 6)
	targets := []graph.NodeID{0, 2, 4}

	ns := sampler.NewNeighbor(g, []int{3, 3})
	mb := ns.Sample(rng, targets)
	m, _ := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{6, 5, 4}, Seed: 5}, nil)
	out := m.Forward(tensor.NewPool(1), mb, GatherPooled(nil, feats, mb.InputNodes()))
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("neighbor forward shape %dx%d, want 3x4", out.Rows, out.Cols)
	}

	sh := sampler.NewShaDow(g, []int{3, 2}, 2)
	mbs := sh.Sample(rng, targets)
	out2 := m.Forward(tensor.NewPool(1), mbs, GatherPooled(nil, feats, mbs.InputNodes()))
	if out2.Rows != 3 || out2.Cols != 4 {
		t.Fatalf("shadow forward shape %dx%d, want 3x4", out2.Rows, out2.Cols)
	}
}

func TestForwardBlockLayerMismatchPanics(t *testing.T) {
	g, _, _ := graph.Generate(graph.GenSpec{NumNodes: 30, NumEdges: 150, NumClasses: 2, Seed: 6, Homophily: 0.5})
	rng := rand.New(rand.NewSource(7))
	ns := sampler.NewNeighbor(g, []int{3}) // one block
	mb := ns.Sample(rng, []graph.NodeID{1})
	m, _ := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{4, 5, 2}, Seed: 8}, nil) // two layers
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on block/layer mismatch")
		}
	}()
	m.Forward(tensor.NewPool(1), mb, tensor.New(mb.Blocks[0].NumSrc(), 4))
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	m, _ := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{4, 2}, Seed: 1}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Backward(tensor.NewPool(1), tensor.New(1, 2))
}

func TestGather(t *testing.T) {
	feats := tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	out := GatherPooled(nil, feats, []graph.NodeID{2, 0})
	want := []float32{5, 6, 1, 2}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("GatherPooled = %v", out.Data)
		}
	}
}

func TestDegrees(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	d := Degrees(g)
	if d[0] != 2 || d[1] != 0 || d[2] != 0 {
		t.Fatalf("Degrees = %v", d)
	}
}

func TestZeroGrad(t *testing.T) {
	m, _ := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{3, 2}, Seed: 2}, nil)
	m.Params()[0].Grad.Fill(5)
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

// A Replica trains on its model's weights and nothing else of it: every
// W is the same matrix, every Grad its own, and a Forward+Backward on
// the replica leaves the model's gradients and activations as they were
// while computing the gradients a separately built twin computes.
func TestReplicaSharesWeightsOwnsGradients(t *testing.T) {
	g, _, err := graph.Generate(graph.GenSpec{NumNodes: 60, NumEdges: 400, NumClasses: 3, Seed: 3, Homophily: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	feats := tensor.New(g.NumNodes, 6)
	rng := rand.New(rand.NewSource(4))
	for i := range feats.Data {
		feats.Data[i] = float32(rng.NormFloat64())
	}
	ns := sampler.NewNeighbor(g, []int{3, 3})
	pool := tensor.NewPool(1)
	train := func(m *GNN, targets []graph.NodeID) {
		mb := ns.Sample(rand.New(rand.NewSource(int64(targets[0]))), targets)
		m.ZeroGrad()
		logits := m.Forward(pool, mb, GatherPooled(nil, feats, mb.InputNodes()))
		_, dLogits := SoftmaxCrossEntropy(logits, make([]int32, len(targets)))
		m.Backward(pool, dLogits)
	}
	for _, kind := range []ModelKind{KindSAGE, KindGCN, KindGIN} {
		spec := ModelSpec{Kind: kind, Dims: []int{6, 5, 3}, Seed: 5}
		orig, err := NewModel(spec, Degrees(g))
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := NewModel(spec, Degrees(g))
		rep := orig.Replica()
		if rep.Buffers() == orig.Buffers() {
			t.Fatalf("%s: replica shares its model's buffer pool", kind)
		}
		for i, p := range rep.Params() {
			if q := orig.Params()[i]; p.W != q.W || p.Grad == q.Grad {
				t.Fatalf("%s param %s: want W shared and Grad owned", kind, p.Name)
			}
		}
		if kind == KindGCN {
			a, b := orig.Layers[0].agg.(gcnAgg), rep.Layers[0].agg.(gcnAgg)
			if &a.invSqrtDeg[0] != &b.invSqrtDeg[0] {
				t.Fatal("gcn: replica copied the normalisation table")
			}
		}

		train(orig, []graph.NodeID{0, 2, 4})
		var grads, acts []*tensor.Matrix
		for _, p := range orig.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		for _, l := range orig.Layers {
			acts = append(acts, l.in.Clone(), l.out.Clone())
		}
		train(rep, []graph.NodeID{7, 9, 11, 13})
		for i, p := range orig.Params() {
			if p.Grad.MaxAbsDiff(grads[i]) != 0 {
				t.Fatalf("%s: the replica's step moved the model's %s gradient", kind, p.Name)
			}
		}
		for i, l := range orig.Layers {
			if l.in.MaxAbsDiff(acts[2*i]) != 0 || l.out.MaxAbsDiff(acts[2*i+1]) != 0 {
				t.Fatalf("%s: the replica's step moved the model's layer %d activations", kind, i)
			}
		}
		train(twin, []graph.NodeID{7, 9, 11, 13})
		for i, p := range rep.Params() {
			if p.Grad.MaxAbsDiff(twin.Params()[i].Grad) != 0 {
				t.Fatalf("%s: replica gradient %s differs from a NewModel twin's", kind, p.Name)
			}
		}
	}
}
