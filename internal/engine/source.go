package engine

import (
	"fmt"
	"slices"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/tensor"
)

// DataSource feeds one replica's feature and label lookups. The default
// source reads the global in-memory dataset; the sharded source reads
// the rows of a shard set loaded once into this process. The engine's
// training step is identical either way — same values in, same
// gradients out — which is what makes sharded training loss-equivalent
// to single-store training.
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

// shardTable is a shard set's features and labels, loaded once and read
// by every replica: node v's feature row is row[v] of feats[shard[v]]
// (graph.ShardSet.Locations), and labels holds every node's label.
type shardTable struct {
	shard, row []int32
	feats      []*tensor.Matrix // by shard
	labels     []int32
	featDim    int
}

// shardSource is one replica's view of a shardTable. It copies rows
// into matrices drawn from bufs, the replica's buffer pool, which the
// engine sets on the replica's copy of the source.
type shardSource struct {
	t    *shardTable
	bufs *tensor.BufPool
}

// NewShardSource loads every shard's feature and label sections once
// and returns the source all replicas of a sharded run read: a gather
// copies each row straight from its owning shard's features into the
// reading replica's buffer pool, and labels come from one table of
// every node's label. Which replica a shard belongs to decides nothing
// here; only the local sampling regime's batches follow ownership
// (NewPartitionSetup).
func NewShardSource(ss *graph.ShardSet) (DataSource, error) {
	feats, labels, err := ss.Rows()
	if err != nil {
		return nil, err
	}
	shard, row, err := ss.Locations()
	if err != nil {
		return nil, err
	}
	return shardSource{t: &shardTable{shard: shard, row: row, feats: feats,
		labels: labels, featDim: ss.Manifest.FeatDim}}, nil
}

func (s shardSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	out := s.bufs.GetDirty(len(ids), s.t.featDim)
	for i, v := range ids {
		if v < 0 || int(v) >= len(s.t.shard) {
			s.bufs.Put(out)
			return nil, fmt.Errorf("engine: node %d outside [0,%d)", v, len(s.t.shard))
		}
		copy(out.Row(i), s.t.feats[s.t.shard[v]].Row(int(s.t.row[v])))
	}
	return out, nil
}

func (s shardSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= len(s.t.labels) {
			return nil, fmt.Errorf("engine: node %d outside [0,%d)", v, len(s.t.labels))
		}
		out[i] = s.t.labels[v]
	}
	return out, nil
}

// ShardSourceOptions configured the exchange NewShardSourcesOpts built.
//
// Deprecated: replicas read the loaded shards directly (NewShardSource),
// so there is no exchange and Transport is ignored. It stays only
// because the repo benchmark's benchmark/train.go names it.
type ShardSourceOptions struct {
	Transport string
}

// NewShardSourcesOpts returns NewShardSource(ss) once per replica and a
// nil exchange.
//
// Deprecated: build one source with NewShardSource and hand it to every
// replica. It stays only because the repo benchmark's benchmark/train.go
// calls it.
func NewShardSourcesOpts(ss *graph.ShardSet, numProcs int, _ ShardSourceOptions) ([]DataSource, *ddp.HaloExchange, error) {
	if numProcs < 1 {
		return nil, nil, fmt.Errorf("engine: %d replicas for a shard set", numProcs)
	}
	src, err := NewShardSource(ss)
	if err != nil {
		return nil, nil, err
	}
	return slices.Repeat([]DataSource{src}, numProcs), nil, nil
}
