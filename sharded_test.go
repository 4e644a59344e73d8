package argo

import (
	"context"
	"math"
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

func shardedCoreDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	spec := graph.DatasetSpec{
		Name:        "sharded-core",
		ScaledNodes: 200, ScaledEdges: 1200,
		ScaledF0: 8, ScaledHidden: 6, ScaledClasses: 3,
		Homophily: 0.65, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := graph.Build(spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// storedShardDataset writes ds as a shard set into a fresh temporary
// directory, opens it, and loads it into one dataset: the set's Skeleton
// plus its Rows, one feature table.
func storedShardDataset(t *testing.T, ds *graph.Dataset, opt graph.ShardOptions) *graph.Dataset {
	t.Helper()
	_, paths, err := graph.WriteShardSet(ds, t.TempDir(), "argo", opt)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	asm, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if asm.Features, asm.Labels, err = ss.Rows(); err != nil {
		t.Fatal(err)
	}
	return asm
}

// A trainer over a shard set's assembled dataset survives auto-tuner
// re-launches: as the process count changes weights carry over, and the
// loss trace stays equal to the single-store trainer driven through the
// identical configuration sequence.
func TestShardedTrainerMatchesAcrossRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	newSampler := func(g *graph.CSR) sampler.Sampler { return sampler.NewNeighbor(g, []int{4, 3}) }
	model := nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5}

	single, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: ds, Sampler: newSampler(ds.Graph), Model: model,
		BatchSize: 24, LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	asm := storedShardDataset(t, ds, graph.ShardOptions{K: 3})
	sharded, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: asm, Sampler: newSampler(asm.Graph), Model: model,
		BatchSize: 24, LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	// A config sequence with changing process counts forces two
	// re-launches (1→2→1 replicas) on each trainer.
	cfgs := []Config{
		{Procs: 1, SampleCores: 1, TrainCores: 1},
		{Procs: 2, SampleCores: 1, TrainCores: 1},
		{Procs: 1, SampleCores: 1, TrainCores: 2},
	}
	ctx := context.Background()
	for _, cfg := range cfgs {
		if _, err := single.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
	}

	a, b := single.LossHistory(), sharded.LossHistory()
	if len(a) != len(b) || len(a) != 2*len(cfgs) {
		t.Fatalf("loss history lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if diff := math.Abs(a[i] - b[i]); diff > 1e-9 {
			t.Fatalf("epoch %d: single-store loss %v, sharded %v", i, a[i], b[i])
		}
	}
	accA, err := single.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	accB, err := sharded.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if accA != accB {
		t.Fatalf("validation accuracy diverged: %v vs %v", accA, accB)
	}
}
