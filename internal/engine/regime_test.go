package engine

import (
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
	return out, ex.TotalStats()
}

// TestPartitionSetupCoversTrainSplit: per-replica targets partition the
// train split, and every target is allowed by its replica's sampler.
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
	total := 0
	seen := map[graph.NodeID]bool{}
	for r, targets := range setup.Targets {
		ps := setup.Samplers[r].(*sampler.Partition)
		for _, v := range targets {
			if seen[v] {
				t.Fatalf("train node %d assigned to two replicas", v)
			}
			seen[v] = true
			if !ps.Allowed(v) {
				t.Fatalf("replica %d target %d outside its allowed set", r, v)
			}
		}
		total += len(targets)
	}
	if total != len(skel.TrainIdx) {
		t.Fatalf("replica targets cover %d of %d train nodes", total, len(skel.TrainIdx))
	}
}

// TestLocalRegimeTransportParity: the local regime's loss history and
// reverse-gradient digest are bit-identical between the inproc and tcp
// transports — the fp32 wire carries exact bits and the collect path
// reduces contributors in a fixed order, so nothing may depend on
// message timing.
func TestLocalRegimeTransportParity(t *testing.T) {
	ds := shardedTestDataset(t)
	const epochs = 3
	inproc, inStats := runLocalRegime(t, ds, "inproc", epochs)
	tcp, tcpStats := runLocalRegime(t, ds, "tcp", epochs)
	for ep := 0; ep < epochs; ep++ {
		if inproc[ep].MeanLoss != tcp[ep].MeanLoss {
			t.Fatalf("epoch %d: loss diverged across transports: %v vs %v", ep, inproc[ep].MeanLoss, tcp[ep].MeanLoss)
		}
		if inproc[ep].GradAbsSum != tcp[ep].GradAbsSum || inproc[ep].GradNodes != tcp[ep].GradNodes {
			t.Fatalf("epoch %d: gradient digest diverged: (%v, %d) vs (%v, %d)",
				ep, inproc[ep].GradAbsSum, inproc[ep].GradNodes, tcp[ep].GradAbsSum, tcp[ep].GradNodes)
		}
		if inproc[ep].GradNodes == 0 || inproc[ep].GradAbsSum == 0 {
			t.Fatalf("epoch %d: no gradient flow recorded under the local regime", ep)
		}
	}
	// Identical logical traffic; the wire framing differs by transport
	// but the halo gradient rows routed must match.
	if inStats.GradRows != tcpStats.GradRows || inStats.RemoteRows != tcpStats.RemoteRows {
		t.Fatalf("transports moved different logical traffic: %+v vs %+v", inStats, tcpStats)
	}
	if inStats.GradRows == 0 {
		t.Fatal("no halo gradient rows routed (boundary rows never learned)")
	}
}

// TestLocalRegimeDeterministic: two runs with the same seed are
// bit-identical (losses and gradient digest).
func TestLocalRegimeDeterministic(t *testing.T) {
	ds := shardedTestDataset(t)
	a, _ := runLocalRegime(t, ds, "inproc", 2)
	b, _ := runLocalRegime(t, ds, "inproc", 2)
	for ep := range a {
		if a[ep].MeanLoss != b[ep].MeanLoss || a[ep].GradAbsSum != b[ep].GradAbsSum {
			t.Fatalf("epoch %d not reproducible: (%v, %v) vs (%v, %v)",
				ep, a[ep].MeanLoss, a[ep].GradAbsSum, b[ep].MeanLoss, b[ep].GradAbsSum)
		}
	}
}

// TestLocalRegimeCutsRemoteFeatureTraffic: on the same shard set the
// partition-local regime fetches fewer remote feature rows than the
// exact regime — the point of the whole exercise. (Total remote rows
// include the gradient backhaul the exact regime doesn't pay; the
// feature direction alone must still shrink.)
func TestLocalRegimeCutsRemoteFeatureTraffic(t *testing.T) {
	ds := shardedTestDataset(t)
	const epochs = 2
	exact, ex := newShardedEngine(t, ds, "inproc", RegimeExact, nil)
	for ep := 0; ep < epochs; ep++ {
		if res, err := exact.RunEpoch(ep); err != nil {
			t.Fatal(err)
		} else if res.GradNodes != 0 || res.GradAbsSum != 0 {
			t.Fatalf("exact regime reported gradient routing: %+v", res)
		}
	}
	exactStats := ex.TotalStats()

	_, localStats := runLocalRegime(t, ds, "inproc", epochs)
	localFeatureRows := localStats.RemoteRows
	if localFeatureRows >= exactStats.RemoteRows {
		t.Fatalf("local regime fetched %d remote rows, exact %d — no locality win",
			localFeatureRows, exactStats.RemoteRows)
	}
	if localStats.RemoteRows == 0 {
		t.Fatal("local regime fetched no remote rows at all (halo never touched — suspicious for K=3 on 2 replicas)")
	}
}
