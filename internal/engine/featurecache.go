package engine

import (
	"fmt"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// featureCache is the first-touch row cache every sharded replica reads
// its features through, in both sampling regimes. Input features are
// read-only, so each row a batch or an evaluation asks for, owned or
// halo, is fetched through the inner (exchange-backed) source once and
// kept for the replica slot's life, across Reconfigure; a cached row is
// a copy of the row the exchange would have sent, so no loss bit moves.
// A miss fetch that fails leaves the cache as it was. Labels pass
// through uncached.
//
// It holds at most one row per node: per replica, at most NumNodes ×
// featDim floats, the size of the single-store feature matrix (the
// local regime's batches keep it to the replica's owned + 1-hop halo
// rows, plus any evaluation rows). Row and byte traffic counts are
// deterministic, since each distinct row moves once; with more than one
// sampling worker the *message* counts may vary run to run, since which
// batch first touches a row depends on scheduling.
type featureCache struct {
	inner DataSource
	bufs  *tensor.BufPool

	mu      sync.Mutex
	cache   *tensor.RowTable
	missing []graph.NodeID // scratch: the ids of one gather's miss fetch
}

// newFeatureCache wraps inner for dim-wide features. bufs is the
// replica's buffer pool (nil falls back to plain allocation).
func newFeatureCache(inner DataSource, dim int, bufs *tensor.BufPool) *featureCache {
	return &featureCache{inner: inner, bufs: bufs, cache: tensor.NewRowTable(dim)}
}

// setInner points the cache at a new inner source. The cached rows stay:
// input features are read-only, so a row is the same whichever source
// fetched it.
func (s *featureCache) setInner(inner DataSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner = inner
}

func (s *featureCache) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	if len(ids) == 0 {
		return s.inner.GatherFeatures(ids)
	}
	// The lock covers the miss fetch: concurrent sampling workers
	// serialise here, so each row is fetched exactly once.
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

func (s *featureCache) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	return s.inner.TargetLabels(ids)
}
