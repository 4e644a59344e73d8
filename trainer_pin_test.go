package argo

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// pinnedTrainerRuns holds, for two trainer set-ups on tiny (seed 7,
// SAGE 16-8-3, fan-outs 4/4, batch 32, lr 0.01), the hex-float loss of
// every epoch of the re-launch schedule in pinnedSchedule. They were
// recorded when the sampler's per-entry reservoir draw became the keyed
// Floyd draw; every loss bit must survive any change that does not
// declare a new sampled stream. "single" trains on the tiny store,
// "exact" on a 3-shard set of it written to disk and loaded into one
// feature table.
var pinnedTrainerRuns = map[string]string{
	"single": "0x1.203f0d9d16f66p+00 0x1.b2e9f682bf784p-01 0x1.2b006979c0d2fp-01 0x1.c5e46b394c427p-02",
	"exact":  "0x1.203f0d9d16f66p+00 0x1.b2e9f682bf784p-01 0x1.2b006979c0d2fp-01 0x1.c5e46b394c427p-02",
}

// pinnedSchedule moves n and (s, t) both ways, so every epoch after the
// first is trained by a reconfigured engine.
var pinnedSchedule = []Config{
	{Procs: 1, SampleCores: 1, TrainCores: 1},
	{Procs: 2, SampleCores: 1, TrainCores: 1},
	{Procs: 1, SampleCores: 2, TrainCores: 2},
	{Procs: 2, SampleCores: 2, TrainCores: 1},
}

// pinnedTrainer builds the trainer of one pinnedTrainerRuns set-up.
func pinnedTrainer(t *testing.T, regime string) *GNNTrainer {
	t.Helper()
	opts := GNNTrainerOptions{BatchSize: 32, LR: 0.01, Seed: 7}
	ds, err := datasets.Resolve("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	if regime == "exact" {
		ds = storedShardDataset(t, ds, graph.ShardOptions{K: 3, Seed: 7})
	}
	opts.Dataset = ds
	opts.Sampler = sampler.NewNeighbor(ds.Graph, []int{4, 4})
	opts.Model = nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 7}
	tr, err := NewGNNTrainer(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrainerMatchesPinnedParent(t *testing.T) {
	for regime, want := range pinnedTrainerRuns {
		tr := pinnedTrainer(t, regime)
		for _, cfg := range pinnedSchedule {
			if _, err := tr.Step(context.Background(), cfg, 1); err != nil {
				t.Fatalf("%s at %s: %v", regime, cfg, err)
			}
		}
		var losses []string
		for _, l := range tr.LossHistory() {
			losses = append(losses, strconv.FormatFloat(l, 'x', -1, 64))
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(losses, " "); got != want {
			t.Errorf("%s: losses %s, want the parent's %s", regime, got, want)
		}
	}
}
