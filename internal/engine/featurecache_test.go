package engine

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"argo/internal/ddp"
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

// The exact regime reads through the cache too, and labels come from the
// shared table: an evaluation repeated over the same ids sends no message
// and moves no row the second time, and scores the same.
func TestFeatureCacheRepeatedEvaluateMovesNoFeatureRows(t *testing.T) {
	ds := shardedTestDataset(t)
	e, ex := newShardedEngine(t, ds, "inproc", RegimeExact, nil)
	ids := e.Config().Dataset.ValIdx
	evaluate := func() (float64, ddp.HaloStats) {
		t.Helper()
		ex.Snapshot()
		acc, err := e.Evaluate(ids)
		if err != nil {
			t.Fatal(err)
		}
		return acc, ex.Snapshot()
	}
	acc1, cold := evaluate()
	acc2, warm := evaluate()
	if cold.RemoteRows == 0 || cold.Messages == 0 {
		t.Fatalf("first evaluation moved %d remote rows in %d messages: no feature row crossed", cold.RemoteRows, cold.Messages)
	}
	if warm.RemoteRows != 0 || warm.Messages != 0 {
		t.Fatalf("repeated evaluation moved %d remote rows in %d messages, want none", warm.RemoteRows, warm.Messages)
	}
	if acc1 != acc2 {
		t.Fatalf("repeated evaluation scored %v, first %v", acc2, acc1)
	}
}

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

// A miss fetch that fails must leave the cache exactly as it was — no
// claimed-but-unfilled rows — so the retried batch refetches the same
// ids and serves real features.
func TestFeatureCacheFailedFetchLeavesCacheUntouched(t *testing.T) {
	ds := shardedTestDataset(t)
	inner := &flakySource{DataSource: datasetSource{ds: ds}}
	fc := newFeatureCache(inner, ds.Features.Cols, nil)
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
	if _, err := fc.GatherFeatures(first); !errors.Is(err, errInjected) {
		t.Fatalf("gather over a failing fetch returned %v", err)
	}
	if fc.cache.Len() != 0 || fc.cache.Row(5) != nil {
		t.Fatalf("failed cold fetch left %d rows cached", fc.cache.Len())
	}
	m, err := fc.GatherFeatures(first)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(first, m)

	// Same with a warm cache: the rollback stops at the rows that were
	// already there.
	second := []graph.NodeID{3, 7, 8, 7}
	inner.failGather.Store(true)
	if _, err := fc.GatherFeatures(second); !errors.Is(err, errInjected) {
		t.Fatalf("gather over a failing fetch returned %v", err)
	}
	if got := fc.cache.IDs(); !slices.Equal(got, []graph.NodeID{5, 3, 9}) || fc.cache.Row(7) != nil {
		t.Fatalf("failed warm fetch left ids %v cached", got)
	}
	m, err = fc.GatherFeatures(second)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(second, m)
	want := [][]graph.NodeID{{5, 3, 9}, {7, 8}}
	if !slices.EqualFunc(inner.gathered, want, slices.Equal[[]graph.NodeID]) {
		t.Fatalf("inner source gathered %v, want %v (deduplicated misses, refetched after the failures)", inner.gathered, want)
	}
}
