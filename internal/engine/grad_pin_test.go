package engine

import (
	"fmt"
	"math"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// pinnedLocalGradDigest is, per epoch, the local regime's reverse-gradient
// digest and loss on tiny (K = 4, 3-layer SAGE, fan-outs 4/4/3, batch 32,
// seed 7, 2 replicas, inproc, s = t = 1) as GradNodes, then the bits of
// GradAbsSum and of MeanLoss. It is the only pin on the first layer's
// input gradient — the exact regime never computes it and no loss reads
// it — so it was recorded before that product's kernel changed.
var pinnedLocalGradDigest = [3]string{
	"111 0x4020088869662c00 0x3ff0bd3e8ed2dd15",
	"112 0x401bed4c0ff81000 0x3fe97994a710b806",
	"113 0x401ab3acaf18a000 0x3fe61dcbd93b3e33",
}

func TestLocalRegimeGradientDigestMatchesPinnedParent(t *testing.T) {
	const seed, numProcs = 7, 2
	fanouts := []int{4, 4, 3}
	ds, err := datasets.Resolve("tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{Transport: "inproc"})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
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
		Sources:        sources,
		SamplingRegime: RegimeLocal,
		LocalSamplers:  setup.Samplers,
		LocalTargets:   setup.Targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ep, want := range pinnedLocalGradDigest {
		res, err := e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d %#016x %#016x", res.GradNodes, math.Float64bits(res.GradAbsSum), math.Float64bits(res.MeanLoss))
		if got != want {
			t.Errorf("epoch %d: gradient digest %s, want the parent's %s", ep, got, want)
		}
	}
}
