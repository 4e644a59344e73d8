package sampler

import (
	"math/rand"

	"argo/internal/graph"
)

// FullNeighbor is the deterministic inference-time counterpart of
// Neighbor: every layer aggregates over a destination's ENTIRE
// neighborhood, in CSR (ascending id) order, with shared sources
// deduplicated within the batch. Because no sampling happens, the
// produced blocks — and therefore a model's forward pass over them —
// are a pure function of (graph, targets): a node's logits are
// bit-identical whether it is queried alone or coalesced into a batch
// with arbitrary other nodes. That invariance is what lets the serving
// path micro-batch cross-request queries and still bit-match a direct
// single-batch forward pass.
type FullNeighbor struct {
	Graph  *graph.CSR
	Layers int
}

// NewFullNeighbor returns a full-neighborhood gatherer feeding an
// L-layer model.
func NewFullNeighbor(g *graph.CSR, layers int) *FullNeighbor {
	return &FullNeighbor{Graph: g, Layers: layers}
}

// Name implements Sampler.
func (f *FullNeighbor) Name() string { return "fullneighbor" }

// NumLayers implements Sampler.
func (f *FullNeighbor) NumLayers() int { return f.Layers }

// Sample implements Sampler. The rng is ignored — the gather is
// deterministic — and may be nil.
func (f *FullNeighbor) Sample(_ *rand.Rand, targets []graph.NodeID) *MiniBatch {
	return f.SamplePruned(targets, nil)
}

// SamplePruned is Sample with frontier pruning at known nodes: a
// destination for which known returns true is not expanded — its
// adjacency row is empty and its neighborhood contributes nothing to
// the next layer's frontier. Known nodes still appear as source rows
// (other destinations aggregate over them), so the caller must inject
// their activations into the layer input before the model consumes it
// (nn.GNN.InferReuse is that seam). This is how precomputed hub
// embeddings short-circuit deep gathers: a hub's k-hop frontier — the
// scan that makes full-neighborhood serving cache-hostile — is never
// walked, because the hub's layer output is already known. Because
// full-neighborhood aggregation makes every node's per-layer activation
// a pure function of (model, graph, features, node), injecting the
// precomputed value is bit-identical to recomputing it. known may be
// nil (no pruning); targets themselves are pruned too when known, so
// callers wanting their logits must answer those targets from the
// precomputed store instead of the returned batch.
func (f *FullNeighbor) SamplePruned(targets []graph.NodeID, known func(graph.NodeID) bool) *MiniBatch {
	return sampleLayers(&picker{g: f.Graph, known: known}, targets, f.Layers)
}
