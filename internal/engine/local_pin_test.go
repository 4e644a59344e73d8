package engine

import (
	"math"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// pinnedLocalLoss is, per epoch, the bits of the local regime's MeanLoss
// on tiny (K = 4, 3-layer SAGE, fan-outs 4/4/3, batch 32, seed 7, 2
// replicas, s = t = 1): the one 3-layer pin on the local regime,
// so the deeper layers' input gradients are pinned through its loss.
var pinnedLocalLoss = [3]uint64{
	0x3ff0bd3e8ed2dd15,
	0x3fe97994a710b806,
	0x3fe61dcbd93b3e33,
}

func TestLocalRegimeLossMatchesPinnedParent(t *testing.T) {
	const seed, numProcs = 7, 2
	fanouts := []int{4, 4, 3}
	ds, err := datasets.Resolve("tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 4, Seed: seed})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	setup, err := NewPartitionSetup(ss, skel, numProcs, fanouts)
	if err != nil {
		t.Fatal(err)
	}
	hidden := ds.Spec.ScaledHidden
	e, err := New(Config{
		Dataset:        skel,
		Sampler:        sampler.NewNeighbor(skel.Graph, fanouts),
		Model:          nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, hidden, hidden, ds.NumClasses}, Seed: seed},
		BatchSize:      32,
		LR:             0.01,
		NumProcs:       numProcs,
		SampleWorkers:  1,
		TrainWorkers:   1,
		Seed:           seed,
		Sources:        shardSources(t, ss, numProcs),
		SamplingRegime: RegimeLocal,
		LocalSamplers:  setup.Samplers,
		LocalTargets:   setup.Targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ep, want := range pinnedLocalLoss {
		res, err := e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.MeanLoss); got != want {
			t.Errorf("epoch %d: loss bits %#016x, want the parent's %#016x", ep, got, want)
		}
	}
}
