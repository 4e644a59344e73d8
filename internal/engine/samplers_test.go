package engine

import (
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// Every training sampler in the repository must plug into the
// multi-process engine and train: subgraph-based (ShaDow) and
// block-based (Neighbor) batches share the model and gradient paths.
func TestAllSamplersTrainEndToEnd(t *testing.T) {
	ds := testDataset(t)
	samplers := map[string]sampler.Sampler{
		"neighbor": sampler.NewNeighbor(ds.Graph, []int{5, 5}),
		"shadow":   sampler.NewShaDow(ds.Graph, []int{5, 3}, 2),
	}
	for name, smp := range samplers {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, ds, 2)
			cfg.Sampler = smp
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := e.RunEpoch(0)
			if err != nil {
				t.Fatal(err)
			}
			var last EpochResult
			for ep := 1; ep < 5; ep++ {
				last, err = e.RunEpoch(ep)
				if err != nil {
					t.Fatal(err)
				}
			}
			if last.MeanLoss >= first.MeanLoss {
				t.Fatalf("%s: loss did not decrease (%.4f → %.4f)", name, first.MeanLoss, last.MeanLoss)
			}
		})
	}
}

// The paper's §II-B claim: full-graph training updates the model once per
// epoch and therefore converges in more epochs than mini-batch training.
func TestFullGraphConvergesSlower(t *testing.T) {
	spec := graph.DatasetSpec{
		Name: "fullgraph-unit", ScaledNodes: 500, ScaledEdges: 4000,
		ScaledF0: 16, ScaledHidden: 8, ScaledClasses: 5,
		Homophily: 0.4, Exponent: 2.2, TrainFrac: 0.3,
	}
	ds, err := graph.Build(spec, 77)
	if err != nil {
		t.Fatal(err)
	}
	run := func(smp sampler.Sampler, batch int) float64 {
		e, err := New(Config{
			Dataset:       ds,
			Sampler:       smp,
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{16, 8, 5}, Seed: 11},
			BatchSize:     batch,
			LR:            0.01,
			NumProcs:      1,
			SampleWorkers: 1,
			TrainWorkers:  1,
			Seed:          77,
		})
		if err != nil {
			t.Fatal(err)
		}
		const epochs = 4
		for ep := 0; ep < epochs; ep++ {
			if _, err := e.RunEpoch(ep); err != nil {
				t.Fatal(err)
			}
		}
		acc, err := e.Evaluate(ds.ValIdx)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	// Full-graph: batch = whole training set over every target's complete
	// 2-hop neighbourhood → 1 update/epoch, 4 updates.
	fullAcc := run(sampler.NewFullNeighbor(ds.Graph, 2), len(ds.TrainIdx))
	// Mini-batch: batch 25 → 6 updates/epoch, 24 updates.
	miniAcc := run(sampler.NewNeighbor(ds.Graph, []int{5, 5}), 25)
	if miniAcc <= fullAcc {
		t.Fatalf("after equal epochs, mini-batch accuracy %.3f should beat full-graph %.3f (more updates/epoch)", miniAcc, fullAcc)
	}
}

// GIN (the model-zoo extension) must train end-to-end like the paper's
// two architectures.
func TestGINTrainsEndToEnd(t *testing.T) {
	ds := testDataset(t)
	cfg := testConfig(t, ds, 2)
	cfg.Model = nn.ModelSpec{Kind: nn.KindGIN, Dims: []int{16, 8, 4}, Seed: 13}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	var last EpochResult
	for ep := 1; ep < 6; ep++ {
		last, err = e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.MeanLoss >= first.MeanLoss {
		t.Fatalf("GIN loss did not decrease: %v → %v", first.MeanLoss, last.MeanLoss)
	}
}
