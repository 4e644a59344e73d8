package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// runShardedEpochs trains `epochs` epochs of the sharded test workload
// with the given transport, returning the loss history, the final
// weights, and the exchange.
func runShardedEpochs(t *testing.T, ds *graph.Dataset, numProcs, epochs int, transport string) ([]float64, []*tensor.Matrix, *ddp.HaloExchange) {
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
	sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Close() })
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = sources
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
	return losses, eng.ExportWeights(), ex
}

// The hard invariant of the refactor: batched + overlapped training —
// in-process and over loopback TCP — bit-matches the per-row baseline,
// which itself bit-matches single-store training (pinned by
// TestShardedTrainingMatchesSingleStore). Both transports must agree
// with single-store on every epoch loss and every final weight, bit for
// bit.
func TestBatchedOverlappedParityAcrossTransports(t *testing.T) {
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
	baseW := base.ExportWeights()

	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport+"-overlap", func(t *testing.T) {
			losses, weights, _ := runShardedEpochs(t, ds, numProcs, epochs, transport)
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

// The acceptance gate for batching: a training epoch must send at least
// 2× fewer exchange messages than the per-row baseline (which sent one
// message per remote row).
func TestBatchedExchangeMessageReduction(t *testing.T) {
	ds := shardedTestDataset(t)
	_, _, ex := runShardedEpochs(t, ds, 2, 1, "inproc")
	total := ex.TotalStats()
	if total.RemoteRows == 0 || total.Messages == 0 {
		t.Fatalf("no exchange traffic recorded: %+v", total)
	}
	if total.Messages*2 > total.RemoteRows {
		t.Fatalf("batched exchange sent %d messages for %d remote rows — less than the required 2× reduction over per-row",
			total.Messages, total.RemoteRows)
	}
	t.Logf("per-row baseline %d messages → batched %d (%.1f× reduction)",
		total.RemoteRows, total.Messages, float64(total.RemoteRows)/float64(total.Messages))
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
