package engine

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor"
)

var errInjected = errors.New("injected fault")

// flakySource decorates a replica's source with one-shot failures: an
// armed call fails once with errInjected and disarms itself.
type flakySource struct {
	DataSource
	failGather, failScatter atomic.Bool
	gathered                [][]graph.NodeID // ids of every gather that reached the inner source
}

func (f *flakySource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	if f.failGather.CompareAndSwap(true, false) {
		return nil, errInjected
	}
	f.gathered = append(f.gathered, slices.Clone(ids))
	return f.DataSource.GatherFeatures(ids)
}

func (f *flakySource) ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error {
	if f.failScatter.CompareAndSwap(true, false) {
		return errInjected
	}
	return f.DataSource.(GradientRouter).ScatterGradients(ids, grads)
}

func (f *flakySource) CollectGradients() ([]graph.NodeID, *tensor.Matrix, error) {
	return f.DataSource.(GradientCollector).CollectGradients()
}

// A flush that fails on one replica must not leave the other replicas'
// sums parked in the exchange: the failing epoch names the replica, and
// the next epoch's digest is the one a run without the fault reports.
func TestLocalRegimeFailedFlushLeavesNothingBehind(t *testing.T) {
	ds := shardedTestDataset(t)
	clean, _ := runLocalRegime(t, ds, "inproc", 3)

	flaky := make([]*flakySource, 2)
	e, ex := newShardedEngine(t, ds, "inproc", RegimeLocal, func(r int, s DataSource) DataSource {
		flaky[r] = &flakySource{DataSource: s}
		return flaky[r]
	})
	if _, err := e.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Steps only accumulate locally, so the first scatter to reach the
	// decorator in epoch 1 is replica 1's flush — after replica 0's may
	// already have landed.
	flaky[1].failScatter.Store(true)
	_, err := e.RunEpoch(1)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "replica 1 gradient flush") {
		t.Fatalf("epoch with a failing flush returned %v, want replica 1's flush error", err)
	}
	for r := 0; r < 2; r++ {
		if ids, _, err := ex.CollectGradients(r); err != nil || len(ids) != 0 {
			t.Fatalf("replica %d still holds %d routed rows after the failed epoch (err %v)", r, len(ids), err)
		}
	}
	res, err := e.RunEpoch(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := clean[2]; res.MeanLoss != want.MeanLoss || res.GradNodes != want.GradNodes || res.GradAbsSum != want.GradAbsSum {
		t.Fatalf("epoch after the failed flush: loss %v digest (%d, %v), clean run (%v, %d, %v)",
			res.MeanLoss, res.GradNodes, res.GradAbsSum, want.MeanLoss, want.GradNodes, want.GradAbsSum)
	}
}

// A miss fetch that fails must leave the cache exactly as it was — no
// claimed-but-unfilled rows — so the retried batch refetches the same
// ids and serves real features.
func TestLocalSourceFailedFetchLeavesCacheUntouched(t *testing.T) {
	ds := shardedTestDataset(t)
	inner := &flakySource{DataSource: datasetSource{ds: ds}}
	ls := newLocalSource(inner, ds.Features.Cols, nil)
	checkRows := func(ids []graph.NodeID, m *tensor.Matrix) {
		t.Helper()
		for i, v := range ids {
			if !slices.Equal(m.Row(i), ds.Features.Row(int(v))) {
				t.Fatalf("row %d (node %d) = %v, want %v", i, v, m.Row(i), ds.Features.Row(int(v)))
			}
		}
	}

	first := []graph.NodeID{5, 3, 5, 9}
	inner.failGather.Store(true)
	if _, err := ls.GatherFeatures(first); !errors.Is(err, errInjected) {
		t.Fatalf("gather over a failing fetch returned %v", err)
	}
	if ls.cache.Len() != 0 || ls.cache.Row(5) != nil {
		t.Fatalf("failed cold fetch left %d rows cached", ls.cache.Len())
	}
	m, err := ls.GatherFeatures(first)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(first, m)

	// Same with a warm cache: the rollback stops at the rows that were
	// already there.
	second := []graph.NodeID{3, 7, 8, 7}
	inner.failGather.Store(true)
	if _, err := ls.GatherFeatures(second); !errors.Is(err, errInjected) {
		t.Fatalf("gather over a failing fetch returned %v", err)
	}
	if got := ls.cache.IDs(); !slices.Equal(got, []graph.NodeID{5, 3, 9}) || ls.cache.Row(7) != nil {
		t.Fatalf("failed warm fetch left ids %v cached", got)
	}
	m, err = ls.GatherFeatures(second)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(second, m)
	want := [][]graph.NodeID{{5, 3, 9}, {7, 8}}
	if !slices.EqualFunc(inner.gathered, want, slices.Equal[[]graph.NodeID]) {
		t.Fatalf("inner source gathered %v, want %v (deduplicated misses, refetched after the failures)", inner.gathered, want)
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
