package engine

import (
	"testing"

	"argo/internal/datasets"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// parentFinalLoss is the min–max spread of the second-epoch mean loss over
// engine seeds 1–10 (arxiv-sim, 2-layer SAGE, fan-outs 4/4, batch 128,
// lr 0.002, model seed 7), recorded with the per-entry reservoir draw the
// keyed Floyd draw replaced.
var parentFinalLoss = [2]float64{0.82395209104528422, 0.8551246800349902}

// TestFinalLossWithinParentSpread checks that the sampler's draw trains
// as well as the one it replaced: the mean final loss over ten engine
// seeds lies inside the old draw's ten-seed spread.
func TestFinalLossWithinParentSpread(t *testing.T) {
	ds, err := datasets.Resolve("arxiv-sim", 7)
	if err != nil {
		t.Fatal(err)
	}
	const seeds, epochs = 10, 2
	var sum float64
	lo, hi := 1e9, -1e9
	for seed := int64(1); seed <= seeds; seed++ {
		e, err := New(Config{
			Dataset:       ds,
			Sampler:       sampler.NewNeighbor(ds.Graph, []int{4, 4}),
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 7},
			BatchSize:     128,
			LR:            0.002,
			NumProcs:      1,
			SampleWorkers: 1,
			TrainWorkers:  1,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var res EpochResult
		for ep := 0; ep < epochs; ep++ {
			if res, err = e.RunEpoch(ep); err != nil {
				t.Fatal(err)
			}
		}
		sum += res.MeanLoss
		lo, hi = min(lo, res.MeanLoss), max(hi, res.MeanLoss)
	}
	mean := sum / seeds
	t.Logf("final loss over %d seeds: mean %.5f, spread [%.5f, %.5f]", seeds, mean, lo, hi)
	if mean < parentFinalLoss[0] || mean > parentFinalLoss[1] {
		t.Errorf("mean final loss %.5f is outside the old draw's spread [%.5f, %.5f]", mean, parentFinalLoss[0], parentFinalLoss[1])
	}
}
