package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

var errInjected = errors.New("injected fault")

// flakySource decorates a replica's source with one-shot failures: an
// armed gather fails once with errInjected and disarms itself.
type flakySource struct {
	DataSource
	failGather atomic.Bool
}

func (f *flakySource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	if f.failGather.CompareAndSwap(true, false) {
		return nil, errInjected
	}
	return f.DataSource.GatherFeatures(ids)
}

// newShardedEngine builds a 2-replica engine over a 3-shard set of ds,
// under the given sampling regime, every replica reading the set's one
// feature table. wrap, when non-nil, decorates each replica's source before the
// engine sees it.
func newShardedEngine(t testing.TB, ds *graph.Dataset, regime SamplingRegime, wrap func(r int, s DataSource) DataSource) *Engine {
	t.Helper()
	const numProcs = 2
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 3})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sources := shardSources(t, ss, numProcs)
	if wrap != nil {
		for r := range sources {
			sources[r] = wrap(r, sources[r])
		}
	}
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = sources
	if regime == RegimeLocal {
		setup, err := NewPartitionSetup(ss, skel, numProcs, []int{5, 4, 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg.SamplingRegime = RegimeLocal
		cfg.LocalSamplers = setup.Samplers
		cfg.LocalTargets = setup.Targets
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runLocalRegime trains epochs under the partition-local regime and
// returns the per-epoch results.
func runLocalRegime(t *testing.T, ds *graph.Dataset, epochs int) []EpochResult {
	t.Helper()
	e := newShardedEngine(t, ds, RegimeLocal, nil)
	var out []EpochResult
	for ep := 0; ep < epochs; ep++ {
		res, err := e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestPartitionSetupCoversTrainSplit: per-replica targets partition the
// train split, and every target lives on one of its replica's shards.
func TestPartitionSetupCoversTrainSplit(t *testing.T) {
	ds := shardedTestDataset(t)
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 3})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	setup, err := NewPartitionSetup(ss, skel, 2, []int{5, 4})
	if err != nil {
		t.Fatal(err)
	}
	shard, _, err := ss.Locations()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[graph.NodeID]bool{}
	for r, targets := range setup.Targets {
		for _, v := range targets {
			if seen[v] {
				t.Fatalf("train node %d assigned to two replicas", v)
			}
			seen[v] = true
			if int(shard[v])%2 != r {
				t.Fatalf("replica %d target %d lives on shard %d, which replica %d owns", r, v, shard[v], shard[v]%2)
			}
		}
		total += len(targets)
	}
	if total != len(skel.TrainIdx) {
		t.Fatalf("replica targets cover %d of %d train nodes", total, len(skel.TrainIdx))
	}
}

// TestLocalRegimeDeterministic: two runs with the same seed have
// bit-identical losses.
func TestLocalRegimeDeterministic(t *testing.T) {
	ds := shardedTestDataset(t)
	a := runLocalRegime(t, ds, 2)
	b := runLocalRegime(t, ds, 2)
	for ep := range a {
		if a[ep].MeanLoss != b[ep].MeanLoss {
			t.Fatalf("epoch %d not reproducible: %v vs %v", ep, a[ep].MeanLoss, b[ep].MeanLoss)
		}
	}
}

// A source error surfaces from RunEpoch naming the replica, and the
// engine stays usable: the next epoch runs clean.
func TestLocalRegimeFailedGatherNamesReplica(t *testing.T) {
	ds := shardedTestDataset(t)
	flaky := make([]*flakySource, 2)
	e := newShardedEngine(t, ds, RegimeLocal, func(r int, s DataSource) DataSource {
		flaky[r] = &flakySource{DataSource: s}
		return flaky[r]
	})
	if _, err := e.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	flaky[1].failGather.Store(true)
	_, err := e.RunEpoch(1)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("epoch with a failing gather returned %v, want replica 1's gather error", err)
	}
	if _, err := e.RunEpoch(2); err != nil {
		t.Fatalf("epoch after the failed gather: %v", err)
	}
}

// Steady-state local-regime epochs allocate no per-row storage: after
// two warm-up epochs (slab and pool growth) an iteration
// costs at most twice the exact regime's allocations on the same shard
// set. With a make per cached, summed and routed row it was 2.2× here
// and 25× on the repo benchmark's train_shard_local shape.
func TestLocalRegimeAllocsNearExact(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	ds := shardedTestDataset(t)
	allocsPerIter := func(regime SamplingRegime) float64 {
		e := newShardedEngine(t, ds, regime, nil)
		epoch, iters := 0, 0
		run := func() {
			res, err := e.RunEpoch(epoch)
			if err != nil {
				t.Fatal(err)
			}
			epoch, iters = epoch+1, res.NumIters
		}
		run()
		run()
		return testing.AllocsPerRun(5, run) / float64(iters)
	}
	exact, local := allocsPerIter(RegimeExact), allocsPerIter(RegimeLocal)
	t.Logf("allocations per iteration: exact %.0f, local %.0f", exact, local)
	if local > 2*exact {
		t.Fatalf("local regime allocates %.0f objects per iteration, exact %.0f: more than 2×", local, exact)
	}
}
