package engine

import (
	"fmt"
	"slices"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// localSource is the data source of one local-regime replica. The
// partition-local sampler bounds every frontier to the replica's owned
// + 1-hop halo rows, so the working set is small and static — the
// Cluster-GCN observation — and the source exploits that in both
// directions:
//
//   - Features: every row a batch or an evaluation asks for, owned or
//     halo, is fetched through the inner (exchange-backed) source on
//     first touch and kept in cache for the rest of the run, so a remote
//     row crosses the wire at most once per run instead of once per
//     batch. A miss fetch that fails leaves the cache as it was.
//   - Input-feature gradients are summed per row into gsum as batches
//     finish; once per epoch FlushGradients routes the sums through the
//     inner GradientRouter and empties gsum, so the backhaul is one row
//     per touched node per epoch instead of one per batch.
//
// Both tables are one slab each, reset rather than reallocated, and the
// gathered batch and the flush matrix come from the replica's BufPool.
// None of it shows in the floats: gathered rows are copies of the
// fetched rows, and each replica steps on one goroutine in batch order,
// so a row's sum adds the same operands in the same order whatever
// holds it. Row/byte traffic counts are deterministic too (each
// distinct row moves exactly once); with more than one sampling worker
// the *message* counts may vary run to run, since which batch first
// touches a row depends on scheduling.
type localSource struct {
	inner DataSource
	bufs  *tensor.BufPool

	mu      sync.Mutex
	cache   *tensor.RowTable
	missing []graph.NodeID // scratch: the ids of one gather's miss fetch

	gmu   sync.Mutex
	gsum  *tensor.RowTable
	order []graph.NodeID // FlushGradients' scratch (one flush at a time): gsum's ids, ascending
}

// newLocalSource wraps inner for dim-wide features. bufs is the
// replica's buffer pool (nil falls back to plain allocation).
func newLocalSource(inner DataSource, dim int, bufs *tensor.BufPool) *localSource {
	return &localSource{
		inner: inner,
		bufs:  bufs,
		cache: tensor.NewRowTable(dim),
		gsum:  tensor.NewRowTable(dim),
	}
}

func (s *localSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	if len(ids) == 0 {
		return s.inner.GatherFeatures(ids)
	}
	// The lock covers the miss fetch: concurrent sampling workers
	// serialise here, so each row is fetched exactly once. Local-regime
	// batches are partition-bounded, so the cache is bounded by the
	// replica's owned + halo set (plus any evaluation rows).
	s.mu.Lock()
	defer s.mu.Unlock()
	// Misses claim their cache rows up front (which dedupes them) and
	// are filled from one inner gather, or rolled back if it fails.
	mark := s.cache.Len()
	s.missing = s.missing[:0]
	for _, v := range ids {
		if _, fresh := s.cache.Add(v); fresh {
			s.missing = append(s.missing, v)
		}
	}
	if len(s.missing) > 0 {
		m, err := s.inner.GatherFeatures(s.missing)
		if err == nil && (m.Rows != len(s.missing) || m.Cols != s.cache.Width()) {
			err = fmt.Errorf("engine: inner source gathered %d×%d for %d ids of width %d",
				m.Rows, m.Cols, len(s.missing), s.cache.Width())
		}
		if err != nil {
			s.cache.Truncate(mark)
			return nil, err
		}
		for i := range s.missing {
			copy(s.cache.At(mark+i), m.Row(i))
		}
	}
	out := s.bufs.Get(len(ids), s.cache.Width())
	for i, v := range ids {
		copy(out.Row(i), s.cache.Row(v))
	}
	return out, nil
}

func (s *localSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	// Local-regime targets are owned rows, served shard-locally by the
	// inner source; nothing to cache.
	return s.inner.TargetLabels(ids)
}

// ScatterGradients implements GradientRouter by accumulating into the
// epoch buffer; nothing crosses the wire until FlushGradients.
func (s *localSource) ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error {
	if grads.Rows != len(ids) || grads.Cols != s.gsum.Width() {
		return fmt.Errorf("engine: %d×%d gradient matrix for %d ids of width %d",
			grads.Rows, grads.Cols, len(ids), s.gsum.Width())
	}
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for i, v := range ids {
		row, _ := s.gsum.Add(v)
		for j, x := range grads.Row(i) {
			row[j] += x
		}
	}
	return nil
}

// FlushGradients routes the accumulated per-row sums to their owners
// through the inner GradientRouter (one batched exchange, ids
// ascending) and empties the buffer, whether or not the exchange
// succeeds. Each replica's step runs on a single goroutine in batch
// order, so the accumulated floats — and therefore the flushed rows —
// are deterministic.
func (s *localSource) FlushGradients() error {
	s.gmu.Lock()
	if s.gsum.Len() == 0 {
		s.gmu.Unlock()
		return nil
	}
	s.order = append(s.order[:0], s.gsum.IDs()...)
	slices.Sort(s.order)
	m := s.bufs.Get(len(s.order), s.gsum.Width())
	defer s.bufs.Put(m)
	for i, v := range s.order {
		copy(m.Row(i), s.gsum.Row(v))
	}
	s.gsum.Reset()
	s.gmu.Unlock()
	rt, ok := s.inner.(GradientRouter)
	if !ok {
		return fmt.Errorf("engine: local source's inner source has no gradient reverse path")
	}
	return rt.ScatterGradients(s.order, m)
}

// discardGradients drops the sums not yet flushed and whatever other
// replicas already routed to this one.
func (s *localSource) discardGradients() {
	s.gmu.Lock()
	s.gsum.Reset()
	s.gmu.Unlock()
	_, _, _ = s.CollectGradients() // a failing drain has nothing to keep either
}

// CollectGradients implements GradientCollector by delegating to the
// inner source's drain.
func (s *localSource) CollectGradients() ([]graph.NodeID, *tensor.Matrix, error) {
	c, ok := s.inner.(GradientCollector)
	if !ok {
		return nil, nil, nil
	}
	return c.CollectGradients()
}
