package nn

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// precomputeActivations runs one j-layer prefix pass per depth and
// returns acts[j][hub] = the hub's layer-j activation (acts[0] is the
// raw feature row, acts[L] the logits) — the recipe the serving layer's
// hub precompute follows.
func precomputeActivations(t *testing.T, m *GNN, g *graph.CSR, feats *tensor.Matrix, hubs []graph.NodeID) []map[graph.NodeID][]float32 {
	t.Helper()
	pool := tensor.NewPool(1)
	acts := make([]map[graph.NodeID][]float32, m.NumLayers()+1)
	acts[0] = make(map[graph.NodeID][]float32, len(hubs))
	for _, h := range hubs {
		acts[0][h] = append([]float32(nil), feats.Row(int(h))...)
	}
	for j := 1; j <= m.NumLayers(); j++ {
		fn := sampler.NewFullNeighbor(g, j)
		mb := fn.Sample(nil, hubs)
		x0 := GatherPooled(nil, feats, mb.InputNodes())
		out := m.InferReuse(pool, mb, x0, nil)
		acts[j] = make(map[graph.NodeID][]float32, len(hubs))
		for i, h := range hubs {
			acts[j][h] = append([]float32(nil), out.Row(i)...)
		}
		m.Buffers().Put(out)
	}
	return acts
}

// TestInferReusePrefixPass pins the prefix contract: a batch with fewer
// blocks than the model has layers runs exactly that prefix, and an
// L-block batch is plain Infer.
func TestInferReusePrefixPass(t *testing.T) {
	g, _ := powerLawGraph(t, 200, 1600)
	feats := randFeatures(g.NumNodes, 7, 2)
	targets := []graph.NodeID{3, 50, 120}
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{7, 6, 5}, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool(1)

	// Full-depth prefix == Infer.
	mb := sampler.NewFullNeighbor(g, 2).Sample(nil, targets)
	x0 := GatherPooled(nil, feats, mb.InputNodes())
	want := m.Infer(pool, mb, x0)
	got := m.InferReuse(pool, mb, GatherPooled(nil, feats, mb.InputNodes()), nil)
	if !bitsEqual(want, got) {
		t.Fatal("L-block InferReuse diverges from Infer")
	}

	// A 1-block prefix yields layer-1 activations: feeding them, plus a
	// 1-block gather from the targets, through the REMAINING layer must
	// reproduce the full-depth logits. (Composable prefixes are what let
	// the hub precompute build layer k from stored layer k-1 state.)
	mb1 := sampler.NewFullNeighbor(g, 1).Sample(nil, mb.Blocks[1].SrcNodes)
	a1 := m.InferReuse(pool, mb1, GatherPooled(nil, feats, mb1.InputNodes()), nil)
	top := &sampler.MiniBatch{Targets: targets, Blocks: mb.Blocks[1:]}
	tail := &GNN{Spec: m.Spec, Layers: m.Layers[1:], bufs: m.bufs}
	got2 := tail.InferReuse(pool, top, a1, nil)
	if !bitsEqual(want, got2) {
		t.Fatal("prefix + remainder does not compose to the full pass")
	}
}

// TestInferReuseInjectionBitIdentity is the exactness gate behind
// precomputed-hub serving: prune the gather at a hub set, inject the
// hubs' stored per-layer activations, and the served logits must be
// bit-identical to a direct full pass — for every model kind.
func TestInferReuseInjectionBitIdentity(t *testing.T) {
	g, _ := powerLawGraph(t, 300, 2400)
	feats := randFeatures(g.NumNodes, 7, 2)
	degrees := Degrees(g)
	hubs := graph.TopDegree(g, 12)
	hubSet := make(map[graph.NodeID]bool, len(hubs))
	for _, h := range hubs {
		hubSet[h] = true
	}
	known := func(v graph.NodeID) bool { return hubSet[v] }
	// Mix of plain targets and hub targets.
	targets := append([]graph.NodeID{0, 5, 17, 42, 99, 250}, hubs[0], hubs[3])

	for _, kind := range []ModelKind{KindSAGE, KindGCN, KindGIN} {
		m, err := NewModel(ModelSpec{Kind: kind, Dims: []int{7, 6, 5}, Seed: 11}, degrees)
		if err != nil {
			t.Fatal(err)
		}
		pool := tensor.NewPool(1)
		acts := precomputeActivations(t, m, g, feats, hubs)

		fn := sampler.NewFullNeighbor(g, m.NumLayers())
		full := fn.Sample(nil, targets)
		direct := m.Infer(pool, full, GatherPooled(nil, feats, full.InputNodes()))

		mb := fn.SamplePruned(targets, known)
		x0 := GatherPooled(nil, feats, mb.InputNodes())
		inject := func(li int, x *tensor.Matrix) {
			for j, v := range mb.Blocks[li].SrcNodes {
				if a, ok := acts[li][v]; ok {
					copy(x.Row(j), a)
				}
			}
		}
		out := m.InferReuse(pool, mb, x0, inject)
		// Hub targets were never expanded: their rows are answered from
		// the stored logits, exactly as the serving path does.
		for i, v := range targets {
			row := out.Row(i)
			if a, ok := acts[m.NumLayers()][v]; ok {
				row = a
			}
			for c := range row {
				if math.Float32bits(row[c]) != math.Float32bits(direct.Row(i)[c]) {
					t.Fatalf("%s: target %d logit %d: pruned+injected %v, direct %v",
						kind, v, c, row[c], direct.Row(i)[c])
				}
			}
		}
		m.Buffers().Put(out)
		m.Buffers().Put(direct)
	}
}

// TestInferReuseRejectsSubgraphInjection pins the contract that
// injection requires block batches.
func TestInferReuseRejectsSubgraphInjection(t *testing.T) {
	g, _ := powerLawGraph(t, 100, 600)
	feats := randFeatures(g.NumNodes, 7, 2)
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{7, 6, 5}, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := sampler.NewShaDow(g, []int{3, 2}, 2)
	mb := sh.Sample(rand.New(rand.NewSource(1)), []graph.NodeID{1, 2})
	x0 := GatherPooled(nil, feats, mb.InputNodes())
	defer func() {
		if recover() == nil {
			t.Fatal("subgraph batch with inject did not panic")
		}
	}()
	m.InferReuse(tensor.NewPool(1), mb, x0, func(int, *tensor.Matrix) {})
}

func bitsEqual(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
