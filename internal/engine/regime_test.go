package engine

import (
	"errors"
	"strings"
	"testing"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/sampler"
)

// newShardedEngine builds a 2-replica engine over a 3-shard set of ds
// on the given transport, under the given sampling regime. wrap, when
// non-nil, decorates each replica's shard source before the engine sees
// it.
func newShardedEngine(t testing.TB, ds *graph.Dataset, transport string, regime SamplingRegime, wrap func(r int, s DataSource) DataSource) (*Engine, *ddp.HaloExchange) {
	t.Helper()
	const numProcs = 2
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
	return e, ex
}

// runLocalRegime trains epochs under the partition-local regime over
// the given transport and returns the per-epoch results plus the
// exchange totals.
func runLocalRegime(t *testing.T, ds *graph.Dataset, transport string, epochs int) ([]EpochResult, ddp.HaloStats) {
	t.Helper()
	e, ex := newShardedEngine(t, ds, transport, RegimeLocal, nil)
	var out []EpochResult
	for ep := 0; ep < epochs; ep++ {
		res, err := e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out, ex.Summary().HaloStats
}

// TestPartitionSetupCoversTrainSplit: per-replica targets partition the
// train split, and every target lives on one of its replica's shards.
func TestPartitionSetupCoversTrainSplit(t *testing.T) {
	ds := shardedTestDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
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

// TestLocalRegimeTransportParity: the local regime's loss history is
// bit-identical between the inproc and tcp transports — the fp32 wire
// carries exact bits, so nothing may depend on message timing.
func TestLocalRegimeTransportParity(t *testing.T) {
	ds := shardedTestDataset(t)
	const epochs = 3
	inproc, inStats := runLocalRegime(t, ds, "inproc", epochs)
	tcp, tcpStats := runLocalRegime(t, ds, "tcp", epochs)
	for ep := 0; ep < epochs; ep++ {
		if inproc[ep].MeanLoss != tcp[ep].MeanLoss {
			t.Fatalf("epoch %d: loss diverged across transports: %v vs %v", ep, inproc[ep].MeanLoss, tcp[ep].MeanLoss)
		}
	}
	// Identical logical traffic on both transports.
	if inStats.RemoteRows != tcpStats.RemoteRows {
		t.Fatalf("transports moved different logical traffic: %+v vs %+v", inStats, tcpStats)
	}
}

// TestLocalRegimeDeterministic: two runs with the same seed have
// bit-identical losses.
func TestLocalRegimeDeterministic(t *testing.T) {
	ds := shardedTestDataset(t)
	a, _ := runLocalRegime(t, ds, "inproc", 2)
	b, _ := runLocalRegime(t, ds, "inproc", 2)
	for ep := range a {
		if a[ep].MeanLoss != b[ep].MeanLoss {
			t.Fatalf("epoch %d not reproducible: %v vs %v", ep, a[ep].MeanLoss, b[ep].MeanLoss)
		}
	}
}

// TestLocalRegimeCutsRemoteFeatureTraffic: on the same shard set the
// partition-local regime fetches fewer remote feature rows than the
// exact regime — the point of the whole exercise.
func TestLocalRegimeCutsRemoteFeatureTraffic(t *testing.T) {
	ds := shardedTestDataset(t)
	const epochs = 2
	exact, ex := newShardedEngine(t, ds, "inproc", RegimeExact, nil)
	for ep := 0; ep < epochs; ep++ {
		if _, err := exact.RunEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	exactStats := ex.Summary()

	_, localStats := runLocalRegime(t, ds, "inproc", epochs)
	if localStats.RemoteRows >= exactStats.RemoteRows {
		t.Fatalf("local regime fetched %d remote rows, exact %d — no locality win",
			localStats.RemoteRows, exactStats.RemoteRows)
	}
	if localStats.RemoteRows == 0 {
		t.Fatal("local regime fetched no remote rows at all (halo never touched — suspicious for K=3 on 2 replicas)")
	}
}

// A source error surfaces from RunEpoch naming the replica, and the
// engine stays usable: the next epoch runs clean.
func TestLocalRegimeFailedGatherNamesReplica(t *testing.T) {
	ds := shardedTestDataset(t)
	flaky := make([]*flakySource, 2)
	e, _ := newShardedEngine(t, ds, "inproc", RegimeLocal, func(r int, s DataSource) DataSource {
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
// two warm-up epochs (cache fill, slab and pool growth) an iteration
// costs at most twice the exact regime's allocations on the same shard
// set. With a make per cached, summed and routed row it was 2.2× here
// and 25× on the repo benchmark's train_shard_local shape.
func TestLocalRegimeAllocsNearExact(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	ds := shardedTestDataset(t)
	allocsPerIter := func(regime SamplingRegime) float64 {
		e, _ := newShardedEngine(t, ds, "inproc", regime, nil)
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
