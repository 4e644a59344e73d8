package sampler

import (
	"argo/internal/graph"
)

// Partition implements partition-local neighbor sampling (the
// Cluster-GCN regime from "Accurate, Efficient and Scalable Training of
// GNNs", PAPERS.md): layered neighbor sampling identical to Neighbor,
// except the frontier is bounded to an allowed node set — a shard's
// owned rows plus its 1-hop halo. Neighbours outside the set are
// skipped as if the edge did not exist, so a replica's mini-batches
// only ever reference rows resident on (or haloed to) its shard, and
// a batch reads other shards' rows only at the partition boundary.
//
// A frontier node draws its picks from its allowed neighbours with
// Neighbor's draw, so when every neighbour is allowed the blocks are
// Neighbor's, bit for bit.
//
// Sample is Neighbor's; targets must lie inside the allowed set (the
// engine draws them from the shard's owned train nodes), and frontier
// expansion never leaves it.
//
// It stays only because the repo benchmark's benchmark/train.go drives
// the engine's local regime (train_shard_local) through
// engine.NewPartitionSetup; no command or trainer option selects it.
type Partition struct{ Neighbor }

// NewPartition returns a partition-local sampler over the
// global topology g, restricted to the given allowed node sets
// (typically a ShardMap's Owned and Halo lists; duplicates are fine).
func NewPartition(g *graph.CSR, fanouts []int, allowed ...[]graph.NodeID) *Partition {
	ps := &Partition{Neighbor{Graph: g, Fanouts: fanouts, allowed: make(bitset, (int(g.NumNodes)+63)/64)}}
	for _, set := range allowed {
		for _, v := range set {
			ps.allowed[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return ps
}

// bitset is a set of global node ids, one bit each.
type bitset []uint64

func (b bitset) has(v graph.NodeID) bool { return b[v>>6]&(1<<(uint(v)&63)) != 0 }

// Name implements Sampler.
func (ps *Partition) Name() string { return "partition" }
