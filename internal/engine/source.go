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
// the replica's own mapped shards and pulls foreign rows through a
// ddp.HaloExchange. The engine's training step is identical either way
// — same values in, same gradients out — which is what makes sharded
// training loss-equivalent to single-store training.
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

// GradientRouter is the optional reverse path of a DataSource: sharded
// sources route per-row gradient contributions back to the rows' owning
// replicas (ddp.HaloExchange.ScatterGradients), which is what a
// partition-local sampler needs to train without assembling the global
// topology. The in-memory dataset source has no reverse path.
type GradientRouter interface {
	// ScatterGradients sends grads (len(ids)×featDim, row i the
	// contribution to ids[i]) to the owners of ids. It keeps neither
	// argument once it returns: callers recycle both.
	ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error
}

// GradientCollector drains the gradient contributions other replicas
// routed to this replica's owned rows since the previous drain. The
// returned ids are ascending and the per-row sums are reduced in
// ascending contributor order, so the drain is deterministic for a
// deterministic schedule regardless of transport or message arrival
// order.
type GradientCollector interface {
	// CollectGradients returns (ids, len(ids)×featDim sums, error);
	// (nil, nil, nil) when nothing accumulated.
	CollectGradients() ([]graph.NodeID, *tensor.Matrix, error)
}

// shardSource is one replica's view of a sharded run: every lookup goes
// through the exchange, which serves owned rows locally and foreign
// rows from their owning replica in batched per-peer messages.
type shardSource struct {
	ex      *ddp.HaloExchange
	replica int
}

func (s shardSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return s.ex.GatherFeatures(s.replica, ids)
}

func (s shardSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	return s.ex.TargetLabels(s.replica, ids)
}

func (s shardSource) ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error {
	return s.ex.ScatterGradients(s.replica, ids, grads)
}

func (s shardSource) CollectGradients() ([]graph.NodeID, *tensor.Matrix, error) {
	return s.ex.CollectGradients(s.replica)
}

// shardRows is every replica's ddp.RowServer: the exchange asks it only
// for nodes the asking replica owns, and it finds their rows through the
// shard set's location table.
type shardRows struct {
	shard, row []int32          // graph.ShardSet.Locations
	feats      []*tensor.Matrix // by shard
	labels     [][]int32        // by shard
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

func (s *shardRows) Labels(ids []graph.NodeID, at []int32, dst []int32) error {
	for i, v := range ids {
		if at != nil {
			i = int(at[i])
		}
		dst[i] = s.labels[s.shard[v]][s.row[v]]
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
// is owned by replica s mod numProcs, each replica materialises only
// its own shards' feature and label sections (lazy / mmap-backed for
// file-backed sets — the other shards' feature bytes are never read by
// this replica), and all lookups flow through the returned
// HaloExchange, whose stats expose the cross-replica traffic a real
// multi-node run would put on the wire. The exchange batches one
// message per (peer, gather) over the selected transport; the caller
// owns the exchange and must Close it (which closes the transport).
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
	owner := make([]int32, len(shard))
	for v, s := range shard {
		if int(row[v]) >= min(feats[s].Rows, len(labels[s])) {
			return nil, nil, fmt.Errorf("engine: shard %d features/labels smaller than its owned set", s)
		}
		owner[v] = s % int32(numProcs)
	}
	rows := &shardRows{shard: shard, row: row, feats: feats, labels: labels}
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
		sources[r] = shardSource{ex: ex, replica: r}
	}
	return sources, ex, nil
}
