package serve

import (
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
)

// TestHubServingBitMatchesDirect is the exactness gate on the
// precomputed-hub path: for every model kind, predictions served
// through pruned gathers + activation injection + stored hub logits
// must bit-match DirectPredict — for hub targets, hub-adjacent targets,
// and targets far from any hub alike.
func TestHubServingBitMatchesDirect(t *testing.T) {
	ds, err := datasets.Build("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	hubs := graph.TopDegree(ds.Graph, 12)
	// Mix hub targets with ordinary ones.
	nodes := append([]graph.NodeID{0, 17, 42, 99, 119}, hubs[0], hubs[5])

	for _, kind := range []nn.ModelKind{nn.KindSAGE, nn.KindGCN, nn.KindGIN} {
		m, err := nn.NewModel(nn.ModelSpec{
			Kind: kind,
			Dims: []int{ds.Features.Cols, 8, 8, ds.NumClasses},
			Seed: 7,
		}, nn.Degrees(ds.Graph))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := DirectPredict(m, ds, nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := newRowCache(PolicyTinyLFU, 1<<16, ds.Features.Cols, graph.DtypeF32)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := newInferencer(m, ds.Graph, NewMatrixFeatureSource(ds.Features), cache, 3)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := inf.PrecomputeHubs(hubs)
		if err != nil {
			t.Fatal(err)
		}
		if hs.Len() != len(hubs) || hs.Layers() != m.NumLayers() || hs.Bytes() <= 0 {
			t.Fatalf("%s: hub store misshapen: len=%d layers=%d bytes=%d", kind, hs.Len(), hs.Layers(), hs.Bytes())
		}
		served, err := inf.Predict(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range nodes {
			if served[i].Label != direct[i].Label || !logitsEqual(served[i].Logits, direct[i].Logits) {
				t.Fatalf("%s: node %d: hub-served %v != direct %v", kind, v, served[i], direct[i])
			}
		}
		// Solo queries, including a pure hub query (no gather at all).
		for i, v := range nodes {
			solo, err := inf.Predict([]graph.NodeID{v})
			if err != nil {
				t.Fatal(err)
			}
			if !logitsEqual(solo[0].Logits, direct[i].Logits) {
				t.Fatalf("%s: node %d: solo hub-served prediction diverges from direct", kind, v)
			}
		}
		if st := inf.HubStats(); st.Hits == 0 || st.Nodes != len(hubs) {
			t.Fatalf("%s: hub stats not tracking: %+v", kind, st)
		}
	}
}

// TestPrecomputeHubsValidates pins the edge cases: out-of-range hubs
// are rejected, and an empty set detaches hub serving.
func TestPrecomputeHubsValidates(t *testing.T) {
	ds, m, _ := serveFixture(t)
	inf, err := newInferencer(m, ds.Graph, NewMatrixFeatureSource(ds.Features), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inf.PrecomputeHubs([]graph.NodeID{graph.NodeID(ds.Graph.NumNodes)}); err == nil {
		t.Fatal("out-of-range hub accepted")
	}
	if _, err := inf.PrecomputeHubs(graph.TopDegree(ds.Graph, 4)); err != nil {
		t.Fatal(err)
	}
	if inf.Hubs() == nil {
		t.Fatal("hub store not attached")
	}
	if _, err := inf.PrecomputeHubs(nil); err != nil {
		t.Fatal(err)
	}
	if inf.Hubs() != nil {
		t.Fatal("empty hub set did not detach the store")
	}
}

// TestHubServingPrunesGather: with every 1-hop neighbour of the target
// precomputed, the deep gather collapses — the input frontier is just
// the target and its hubs, not the 2-hop ball.
func TestHubServingPrunesGather(t *testing.T) {
	ds, m, _ := serveFixture(t)
	inf, err := newInferencer(m, ds.Graph, NewMatrixFeatureSource(ds.Features), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	hubs := graph.TopDegree(ds.Graph, 24)
	if _, err := inf.PrecomputeHubs(hubs); err != nil {
		t.Fatal(err)
	}
	known := inf.Hubs().Contains
	target := []graph.NodeID{hubs[0]}
	mb := inf.gather.SamplePruned(target, known)
	if got := mb.Stats.SampledEdges; got != 0 {
		t.Fatalf("hub target still gathered %d edges", got)
	}
	full := inf.gather.Sample(nil, target)
	if full.Stats.SampledEdges == 0 {
		t.Fatal("fixture hub has no frontier; the assertion above is vacuous")
	}
}

// Hubs returns the attached hub store (nil when hub serving is off).
func (inf *Inferencer) Hubs() *HubStore { return inf.hubs }
