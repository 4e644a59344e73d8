package serve

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/tensor"
)

// requireHandBits fails unless every prediction carries, to the bit, its
// row of the hand-gathered reference (handGatherPredict), which shares
// no code with the serving gather or the cache.
func requireHandBits(t *testing.T, preds []Prediction, want *tensor.Matrix, what string) {
	t.Helper()
	for i, p := range preds {
		if !logitsEqual(p.Logits, want.Row(i)) {
			t.Fatalf("%s: node %d gives %v, the hand-gathered pass %v", what, p.Node, p.Logits, want.Row(i))
		}
	}
}

// DirectPredict and every served answer equal the hand-gathered
// reference, so a gather fault the served path shares with
// DirectPredict still fails: over three seeds of the dataset, the model
// and the requested nodes, on fp32 and fp16 lazy stores, with the cache
// under both policies (overflowing and large), hubs off and on, cold
// and warm.
func TestServedBitsMatchHandGatherAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
			ds, err := datasets.Build("tiny", seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.ConvertFeatures(dt); err != nil {
				t.Fatal(err)
			}
			m, err := nn.NewModel(nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Features.Cols, 8, 8, ds.NumClasses}, Seed: seed}, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.argograph")
			if err := ds.Save(path); err != nil {
				t.Fatal(err)
			}
			lz, err := graph.OpenLazy(path)
			if err != nil {
				t.Fatal(err)
			}
			g, err := lz.Topology()
			if err != nil {
				t.Fatal(err)
			}
			var nodes []graph.NodeID
			for _, v := range rand.New(rand.NewSource(seed)).Perm(ds.Graph.NumNodes)[:9] {
				nodes = append(nodes, graph.NodeID(v))
			}
			want := handGatherPredict(m, ds, nodes)
			direct, err := DirectPredict(m, ds, nodes, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireHandBits(t, direct, want, fmt.Sprintf("seed %d %v DirectPredict", seed, dt))
			for _, policy := range Policies() {
				for _, hubs := range []float64{0, 0.25} {
					for _, budget := range []int64{1 << 12, 1 << 16} {
						srv, err := New(Source{Graph: g, Features: NewLazyFeatureSource(lz)}, m,
							WithPolicy(policy), WithCacheBytes(budget), WithPrecomputeHubs(hubs))
						if err != nil {
							t.Fatal(err)
						}
						for pass := 0; pass < 2; pass++ {
							served, err := srv.Batcher().Predict(nodes)
							if err != nil {
								t.Fatal(err)
							}
							requireHandBits(t, served, want, fmt.Sprintf("seed %d %v/%s/hubs=%g/%dB pass %d", seed, dt, policy, hubs, budget, pass))
						}
						srv.Close()
					}
				}
			}
			lz.Close()
		}
	}
}
