package engine

import (
	"fmt"
	"slices"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// localSource is the gradient half of one local-regime replica's data
// source, over the feature cache every sharded replica has.
// Input-feature gradients are summed per row into gsum as batches
// finish; once per epoch FlushGradients routes the sums through the
// inner GradientRouter and empties gsum, so the backhaul is one row per
// touched node per epoch instead of one per batch.
//
// gsum is one slab, reset rather than reallocated, and the flush matrix
// comes from the replica's BufPool. Each replica steps on one goroutine
// in batch order, so a row's sum adds the same operands in the same
// order whatever holds it.
type localSource struct {
	*featureCache

	gmu   sync.Mutex
	gsum  *tensor.RowTable
	order []graph.NodeID // FlushGradients' scratch (one flush at a time): gsum's ids, ascending
}

// newLocalSource wraps inner for dim-wide features. bufs is the
// replica's buffer pool (nil falls back to plain allocation).
func newLocalSource(inner DataSource, dim int, bufs *tensor.BufPool) *localSource {
	return &localSource{featureCache: newFeatureCache(inner, dim, bufs), gsum: tensor.NewRowTable(dim)}
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
