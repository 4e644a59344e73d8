package argo

import (
	"context"
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// newLocalRegimeTrainer builds a sharded trainer under the partition-
// local sampling regime.
func newLocalRegimeTrainer(t *testing.T, ds *graph.Dataset) *GNNTrainer {
	t.Helper()
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: skel, Sampler: sampler.NewNeighbor(skel.Graph, []int{4, 3}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
		BatchSize: 24, LR: 0.01, Seed: 3, Shards: ss,
		SamplingRegime: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestLocalRegimeTrainerAcrossRelaunches: the partition samplers and
// owned-target sets are rebuilt on every process-count change, training
// converges, and the run is reproducible bit-for-bit.
func TestLocalRegimeTrainerAcrossRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	run := func() []float64 {
		tr := newLocalRegimeTrainer(t, ds)
		ctx := context.Background()
		for _, cfg := range []Config{
			{Procs: 1, SampleCores: 1, TrainCores: 1},
			{Procs: 2, SampleCores: 1, TrainCores: 1},
			{Procs: 1, SampleCores: 1, TrainCores: 2},
		} {
			if _, err := tr.Step(ctx, cfg, 2); err != nil {
				t.Fatal(err)
			}
		}
		return tr.LossHistory()
	}
	first, again := run(), run()
	if len(first) != 6 {
		t.Fatalf("expected 6 epochs, got %d", len(first))
	}
	if first[5] >= first[0] {
		t.Fatalf("local-regime loss did not fall across relaunches: %v", first)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("epoch %d: local-regime loss not reproducible: %v vs %v", i, first[i], again[i])
		}
	}
}

// TestLocalRegimeOptionValidation: the regime refuses to start without
// a shard set, or with a sampler whose fanouts it cannot take.
func TestLocalRegimeOptionValidation(t *testing.T) {
	ds := shardedCoreDataset(t)
	base := GNNTrainerOptions{
		Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{4, 3}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
		BatchSize: 24, LR: 0.01, Seed: 3,
	}
	opts := base
	opts.SamplingRegime = "local"
	if _, err := NewGNNTrainer(opts); err == nil {
		t.Fatal("local regime without a shard set accepted")
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	opts.Shards = ss
	shadow := opts
	shadow.Sampler = sampler.NewShaDow(ds.Graph, []int{4, 3}, 2)
	if _, err := NewGNNTrainer(shadow); err == nil {
		t.Fatal("local regime with a ShaDow sampler accepted")
	}
	if _, err := NewGNNTrainer(opts); err != nil {
		t.Fatal(err)
	}
}
