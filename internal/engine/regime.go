package engine

import (
	"fmt"

	"argo/internal/graph"
	"argo/internal/sampler"
)

// SamplingRegime selects how sharded training draws its mini-batches.
type SamplingRegime int

const (
	// RegimeExact samples over the assembled global topology: every
	// replica sees the same batch stream a single-store run would, so
	// losses stay bit-identical to single-store training. A batch may
	// touch any row of the graph; every replica reads it from the one
	// feature table.
	RegimeExact SamplingRegime = iota
	// RegimeLocal samples partition-locally (the Cluster-GCN regime):
	// each replica draws seeds from its own shards' owned train nodes
	// and bounds frontiers to owned + 1-hop halo rows, trading a
	// bounded accuracy perturbation for batches bounded by the
	// replica's partition. Features are frozen inputs, so, as in the
	// exact regime, only parameter gradients are all-reduced and nothing
	// flows back to a row's owner.
	//
	// It stays only because the repo benchmark's benchmark/train.go
	// drives it (train_shard_local); no command or trainer option
	// selects it.
	RegimeLocal
)

// PartitionSetup holds the per-replica pieces the local regime needs:
// a partition-bounded sampler per replica and each replica's owned
// train targets.
type PartitionSetup struct {
	// Samplers[r] bounds replica r's frontiers to its shards' owned +
	// 1-hop halo rows.
	Samplers []sampler.Sampler
	// Targets[r] is the subset of the dataset's train split owned by
	// replica r's shards, in the split's order (disjoint across
	// replicas, union = the full train split).
	Targets [][]graph.NodeID
}

// NewPartitionSetup builds the local-regime setup for a shard set
// mapped onto numProcs replicas (shard s → replica s mod numProcs). ds must carry the set's
// global topology and train split — typically ShardSet.Skeleton() —
// and fanouts configure the per-replica neighbor sampling. It stays
// only because the repo benchmark's benchmark/train.go calls it.
func NewPartitionSetup(ss *graph.ShardSet, ds *graph.Dataset, numProcs int, fanouts []int) (*PartitionSetup, error) {
	if numProcs < 1 {
		return nil, fmt.Errorf("engine: %d replicas for a partition setup", numProcs)
	}
	if ds == nil || ds.Graph == nil {
		return nil, fmt.Errorf("engine: partition setup needs the global topology")
	}
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("engine: partition setup needs fanouts")
	}
	k := ss.K()
	sets := make([][][]graph.NodeID, numProcs) // per replica: owned/halo lists
	for s := 0; s < k; s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			return nil, err
		}
		r := s % numProcs
		sets[r] = append(sets[r], sm.Owned, sm.Halo)
	}
	ps := &PartitionSetup{
		Samplers: make([]sampler.Sampler, numProcs),
		Targets:  make([][]graph.NodeID, numProcs),
	}
	for r := 0; r < numProcs; r++ {
		ps.Samplers[r] = sampler.NewPartition(ds.Graph, fanouts, sets[r]...)
	}
	for _, v := range ds.TrainIdx {
		s, err := ss.Owner(v)
		if err != nil {
			return nil, err
		}
		r := s % numProcs
		ps.Targets[r] = append(ps.Targets[r], v)
	}
	return ps, nil
}
