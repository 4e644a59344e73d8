package engine

import (
	"fmt"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/tensor"
)

// DataSource feeds one replica's feature and label lookups. The default
// source reads the global in-memory dataset; the sharded source reads
// the replica's own mapped shards, pulls foreign feature rows through a
// ddp.HaloExchange and reads labels from a table shared by all
// replicas. The engine's training step is identical either way — same
// values in, same gradients out — which is what makes sharded training
// loss-equivalent to single-store training.
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

// shardSource is one replica's view of a sharded run: feature rows go
// through the exchange, which serves owned rows locally and foreign
// rows from their owning replica in batched per-peer messages; labels
// are read from the run's one label table.
type shardSource struct {
	ex      *ddp.HaloExchange
	replica int
	labels  []int32 // every node's label, shared by all replicas
}

func (s shardSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return s.ex.GatherFeatures(s.replica, ids)
}

func (s shardSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, v := range ids {
		if v < 0 || int(v) >= len(s.labels) {
			return nil, fmt.Errorf("engine: node %d outside [0,%d)", v, len(s.labels))
		}
		out[i] = s.labels[v]
	}
	return out, nil
}

// shardRows is every replica's ddp.RowServer: the exchange asks it only
// for nodes the asking replica owns, and it finds their rows through the
// shard set's location table.
type shardRows struct {
	shard, row []int32          // graph.ShardSet.Locations
	feats      []*tensor.Matrix // by shard
}

func (s *shardRows) Rows(ids []graph.NodeID, at []int32, dst []float32) error {
	for i, v := range ids {
		if at != nil {
			i = int(at[i])
		}
		src := s.feats[s.shard[v]].Row(int(s.row[v]))
		copy(dst[i*len(src):(i+1)*len(src)], src)
	}
	return nil
}

// ShardSourceOptions configures NewShardSourcesOpts.
type ShardSourceOptions struct {
	// Transport names the ddp transport carrying the exchange: "" or
	// "inproc" for direct calls, "tcp" for loopback sockets.
	Transport string
}

// NewShardSourcesOpts maps a shard set onto numProcs replicas: shard s
// is owned by replica s mod numProcs, and feature lookups flow through
// the returned HaloExchange, whose stats expose the cross-replica
// traffic a real multi-node run would put on the wire. The replicas
// share one address space: every shard's feature section is loaded
// here, once, and all replicas' row servers are the same table over
// them, so ownership decides what the exchange counts, not what is
// held in memory. Labels are read-only and 4 bytes a node, so
// every shard's label section is gathered here into one table of every
// node's label that all replicas read; no label crosses the exchange.
// The exchange batches one message per (peer, gather) over the selected
// transport; the caller owns the exchange and must Close it (which
// closes the transport).
func NewShardSourcesOpts(ss *graph.ShardSet, numProcs int, opt ShardSourceOptions) ([]DataSource, *ddp.HaloExchange, error) {
	if numProcs < 1 {
		return nil, nil, fmt.Errorf("engine: %d replicas for a shard set", numProcs)
	}
	shard, row, err := ss.Locations()
	if err != nil {
		return nil, nil, err
	}
	// The wire dtype is negotiated from the store dtype alone: an fp16
	// shard set's rows are fp16-exact, so shipping them as fp16 bits is
	// lossless and transport-invariant. (An fp16 wire over an fp32 store
	// would lose bits only when a message crosses address spaces, making
	// results transport-dependent — so it is never enabled.)
	wireDtype, err := graph.ParseFeatDtype(ss.Manifest.FeatDtype)
	if err != nil {
		return nil, nil, err
	}
	featDim := ss.Manifest.FeatDim
	feats, labels := make([]*tensor.Matrix, ss.K()), make([][]int32, ss.K())
	for s := range feats {
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, nil, err
		}
		if feats[s], err = lz.Features(); err != nil {
			return nil, nil, err
		}
		if labels[s], err = lz.Labels(); err != nil {
			return nil, nil, err
		}
		if feats[s].Cols != featDim {
			return nil, nil, fmt.Errorf("engine: shard %d stores %d-wide rows, manifest says %d", s, feats[s].Cols, featDim)
		}
	}
	owner, nodeLabels := make([]int32, len(shard)), make([]int32, len(shard))
	for v, s := range shard {
		if int(row[v]) >= min(feats[s].Rows, len(labels[s])) {
			return nil, nil, fmt.Errorf("engine: shard %d features/labels smaller than its owned set", s)
		}
		owner[v] = s % int32(numProcs)
		nodeLabels[v] = labels[s][row[v]]
	}
	rows := &shardRows{shard: shard, row: row, feats: feats}
	servers := make([]ddp.RowServer, numProcs)
	for r := range servers {
		servers[r] = rows
	}
	tr, err := ddp.NewTransport(opt.Transport)
	if err != nil {
		return nil, nil, err
	}
	ex, err := ddp.NewHaloExchange(featDim, owner, servers, ddp.ExchangeOptions{Transport: tr, WireDtype: wireDtype})
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	sources := make([]DataSource, numProcs)
	for r := range sources {
		sources[r] = shardSource{ex: ex, replica: r, labels: nodeLabels}
	}
	return sources, ex, nil
}
