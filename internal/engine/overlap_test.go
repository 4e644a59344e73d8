package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// runShardedEpochs trains `epochs` epochs of the sharded test workload
// with s sampling workers per replica, returning the loss history and
// the final weights.
func runShardedEpochs(t *testing.T, ds *graph.Dataset, numProcs, epochs, s int) ([]float64, []*tensor.Matrix) {
	t.Helper()
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 3})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = shardSources(t, ss, numProcs)
	cfg.SampleWorkers = s
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for ep := 0; ep < epochs; ep++ {
		res, err := eng.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, res.MeanLoss)
	}
	return losses, cloneWeights(eng)
}

// Overlapped sharded training — the sampling workers gathering rows from
// the shard set's feature table while the trainer computes — bit-matches
// single-store training on every epoch loss and every final weight,
// with one sampling worker per replica and with four.
func TestOverlappedShardedParity(t *testing.T) {
	ds := shardedTestDataset(t)
	const numProcs, epochs = 2, 3

	base, err := New(shardedEngineConfig(ds, numProcs))
	if err != nil {
		t.Fatal(err)
	}
	var baseLoss []float64
	for ep := 0; ep < epochs; ep++ {
		res, err := base.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		baseLoss = append(baseLoss, res.MeanLoss)
	}
	baseW := cloneWeights(base)

	for _, s := range []int{1, 4} {
		t.Run(fmt.Sprintf("s%d", s), func(t *testing.T) {
			losses, weights := runShardedEpochs(t, ds, numProcs, epochs, s)
			for ep := range losses {
				if losses[ep] != baseLoss[ep] {
					t.Fatalf("epoch %d: loss %v, single-store %v (diff %g)",
						ep, losses[ep], baseLoss[ep], math.Abs(losses[ep]-baseLoss[ep]))
				}
			}
			for i := range weights {
				if d := weights[i].MaxAbsDiff(baseW[i]); d != 0 {
					t.Fatalf("weight tensor %d diverged by %v", i, d)
				}
			}
		})
	}
}

// A fetch error surfacing from the prefetch stage must abort the epoch
// with the error — and the abort must not strand prefetch goroutines
// (workers park on the reorder buffer when consumption stops early).
func TestOverlapFetchErrorPropagates(t *testing.T) {
	ds := shardedTestDataset(t)
	cfg := shardedEngineConfig(ds, 1)
	cfg.SampleWorkers = 4
	cfg.Dataset = &graph.Dataset{
		Spec: ds.Spec, Graph: ds.Graph, NumClasses: ds.NumClasses,
		TrainIdx: ds.TrainIdx, ValIdx: ds.ValIdx, TestIdx: ds.TestIdx,
	}
	cfg.Sources = []DataSource{failingSource{}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := eng.RunEpoch(0); err == nil {
		t.Fatal("fetch error swallowed by the overlap path")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("aborted epoch leaked goroutines: %d before, %d after", before, after)
	}
}

type failingSource struct{}

func (failingSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return nil, fmt.Errorf("synthetic fetch failure")
}
func (failingSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	return nil, fmt.Errorf("synthetic fetch failure")
}
