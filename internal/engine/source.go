package engine

import (
	"fmt"
	"slices"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/tensor"
)

// DataSource feeds one replica's feature and label lookups. The
// engine's own source reads the materialised dataset's one feature
// table; the repo benchmark's shard workloads hand it the same kind of
// table, loaded from a shard set by graph.ShardSet.Rows, so the training
// step is identical either way — same values in, same gradients out —
// which is what makes sharded training loss-equivalent to single-store
// training.
type DataSource interface {
	// GatherFeatures returns the feature rows of ids, in order. The
	// returned matrix is freshly assembled and owned by the caller,
	// which may recycle it into a buffer pool once consumed; ids stays
	// the caller's and is not kept.
	GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error)
	// TargetLabels returns the labels of ids, in order.
	TargetLabels(ids []graph.NodeID) ([]int32, error)
}

// datasetSource serves every replica from the one materialised dataset.
// bufs, when non-nil, recycles gathered batches (the replica puts them
// back after each step); the pool is concurrency-safe, so the sampling
// workers' gathers can share it with the training step.
type datasetSource struct {
	ds   *graph.Dataset
	bufs *tensor.BufPool
}

func (s datasetSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return nn.GatherPooled(s.bufs, s.ds.Features, ids), nil
}

func (s datasetSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = s.ds.Labels[v]
	}
	return out, nil
}

// GradientRouter was the input-feature gradient's reverse path.
//
// Deprecated: input features are frozen, so nothing computes or routes
// that gradient and nothing in this module implements the interface. It
// stays only because the repo benchmark's traced source names it.
type GradientRouter interface {
	ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error
}

// GradientCollector was the drain of GradientRouter's routed sums.
//
// Deprecated: as for GradientRouter; nothing implements it.
type GradientCollector interface {
	CollectGradients() ([]graph.NodeID, *tensor.Matrix, error)
}

// ShardSourceOptions configured the exchange NewShardSourcesOpts built.
//
// Deprecated: there is no exchange, and Transport is ignored. It stays
// only because the repo benchmark's benchmark/train.go names it.
type ShardSourceOptions struct {
	Transport string
}

// NewShardSourcesOpts loads the shard set's feature table and labels
// once (graph.ShardSet.Rows) and returns a source over them for each of
// numProcs replicas, and a nil exchange. The engine hands each
// replica's source that replica's buffer pool, as it does for its own.
//
// Deprecated: train on a single store's dataset with no Sources. It
// stays only because the repo benchmark's benchmark/train.go calls it,
// and the local sampling regime it drives there needs Sources.
func NewShardSourcesOpts(ss *graph.ShardSet, numProcs int, _ ShardSourceOptions) ([]DataSource, *ddp.HaloExchange, error) {
	if numProcs < 1 {
		return nil, nil, fmt.Errorf("engine: %d replicas for a shard set", numProcs)
	}
	feats, labels, err := ss.Rows()
	if err != nil {
		return nil, nil, err
	}
	src := datasetSource{ds: &graph.Dataset{Features: feats, Labels: labels}}
	return slices.Repeat([]DataSource{src}, numProcs), nil, nil
}
