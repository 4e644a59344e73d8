// Package engine is the mini-batch GNN training engine: it plays the role
// DGL/PyG play in the paper. It owns the epoch loop, the sampling-worker
// pipeline that overlaps sampling with model propagation (the s-vs-t
// trade-off ARGO tunes), and the multi-replica iteration that the ARGO
// Multi-Process Engine coordinates.
//
// Semantics preservation is structural: every iteration processes one
// *global* mini-batch of size B; with n processes the batch is split into
// n shares of ≈B/n targets, each replica computes the mean-loss gradient
// over its share, and the weighted all-reduce reconstructs exactly the
// gradient of the mean loss over the global batch. Training with n
// processes is therefore algorithmically equivalent to training with one.
package engine

import (
	"math/rand"

	"argo/internal/graph"
	"argo/internal/sampler"
)

// seedFor derives the sampling seed for one global batch: independent
// deterministic seeds for (epoch, iteration, worker) tuples.
func seedFor(base int64, epoch, iter int) int64 {
	return int64(sampler.Mix64(uint64(base) ^ sampler.Mix64(uint64(epoch))<<1 ^ sampler.Mix64(uint64(iter))<<2))
}

// epochBatches shuffles the training IDs with the epoch's seed and chunks
// them into global mini-batches of size batch. Every training target
// appears in exactly one batch.
func epochBatches(train []graph.NodeID, batch int, seed int64) [][]graph.NodeID {
	ids := make([]graph.NodeID, len(train))
	copy(ids, train)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var out [][]graph.NodeID
	for lo := 0; lo < len(ids); lo += batch {
		out = append(out, ids[lo:min(lo+batch, len(ids))])
	}
	return out
}

// splitShares splits one global batch into n contiguous shares whose sizes
// differ by at most one. Shares may be empty when the batch is smaller
// than n.
func splitShares(batch []graph.NodeID, n int) [][]graph.NodeID {
	shares := make([][]graph.NodeID, n)
	base := len(batch) / n
	rem := len(batch) % n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		shares[i] = batch[lo : lo+size]
		lo += size
	}
	return shares
}

// newEvalRand derives a deterministic RNG for evaluation batch lo.
func newEvalRand(seed int64, lo int) *rand.Rand {
	return rand.New(rand.NewSource(int64(sampler.Mix64(uint64(seed)+0xe0a1) ^ uint64(lo)*0x9e37)))
}
