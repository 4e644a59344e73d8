package engine

import (
	"slices"
	"sync"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// countingSource counts how many times each id reaches the source it
// decorates.
type countingSource struct {
	DataSource
	mu      sync.Mutex
	fetched map[graph.NodeID]int
}

func (c *countingSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	c.mu.Lock()
	for _, v := range ids {
		c.fetched[v]++
	}
	c.mu.Unlock()
	return c.DataSource.GatherFeatures(ids)
}

// Concurrent sampling workers share one cache: four goroutines gathering
// overlapping id sets (with repeats inside a set) each get the rows a
// direct gather returns, and every id reaches the inner source exactly
// once.
func TestFeatureCacheFetchesEachRowOnce(t *testing.T) {
	ds := shardedTestDataset(t)
	direct := datasetSource{ds: ds}
	inner := &countingSource{DataSource: direct, fetched: map[graph.NodeID]int{}}
	fc := newFeatureCache(inner, ds.Features.Cols, tensor.NewBufPool())
	n := ds.Graph.NumNodes
	asked := make([]map[graph.NodeID]bool, 4)
	var wg sync.WaitGroup
	for w := range asked {
		asked[w] = map[graph.NodeID]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				ids := make([]graph.NodeID, 48)
				for i := range ids {
					ids[i] = graph.NodeID((w*29 + round*13 + i*i) % (n / 2))
					asked[w][ids[i]] = true
				}
				got, err := fc.GatherFeatures(ids)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := direct.GatherFeatures(ids)
				if got.Rows != want.Rows || !slices.Equal(got.Data, want.Data) {
					t.Errorf("worker %d round %d: cached gather differs from a direct one", w, round)
				}
			}
		}()
	}
	wg.Wait()
	union := map[graph.NodeID]bool{}
	for _, a := range asked {
		for v := range a {
			union[v] = true
		}
	}
	if len(inner.fetched) != len(union) {
		t.Fatalf("inner source saw %d distinct ids, the workers asked for %d", len(inner.fetched), len(union))
	}
	for v, c := range inner.fetched {
		if c != 1 || !union[v] {
			t.Fatalf("id %d reached the inner source %d times (asked for: %v)", v, c, union[v])
		}
	}
}

// The exact regime reads through the cache too: an evaluation repeated
// over the same ids moves no feature row the second time, only its label
// lookups, and scores the same.
func TestFeatureCacheRepeatedEvaluateMovesNoFeatureRows(t *testing.T) {
	ds := shardedTestDataset(t)
	e, ex := newShardedEngine(t, ds, "inproc", RegimeExact, nil)
	ids := e.Config().Dataset.ValIdx
	evaluate := func() (float64, int64) {
		t.Helper()
		ex.Snapshot()
		acc, err := e.Evaluate(ids)
		if err != nil {
			t.Fatal(err)
		}
		return acc, ex.Snapshot().RemoteRows
	}
	acc1, cold := evaluate()
	acc2, warm := evaluate()
	if _, err := ex.TargetLabels(0, ids); err != nil {
		t.Fatal(err)
	}
	labels := ex.Snapshot().RemoteRows
	if cold <= labels {
		t.Fatalf("first evaluation moved %d remote rows, its labels alone %d: no feature row crossed", cold, labels)
	}
	if warm != labels {
		t.Fatalf("repeated evaluation moved %d remote rows, its labels alone %d: %d feature rows re-fetched",
			warm, labels, warm-labels)
	}
	if acc1 != acc2 {
		t.Fatalf("repeated evaluation scored %v, first %v", acc2, acc1)
	}
}
