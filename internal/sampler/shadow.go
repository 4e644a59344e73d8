package sampler

import (
	"math/rand"

	"argo/internal/graph"
)

// ShaDow implements the ShaDow-GNN sampler (Zeng et al., the paper's
// ShaDow Sampler): for each target node it extracts a localized subgraph
// by L'-hop fanout expansion (paper setting: fanouts [10, 5]) and the GNN
// then runs all of its layers on the induced subgraph, decoupling model
// depth from sampling depth and avoiding neighbour explosion.
//
// The per-batch subgraph is the union of the per-target localized node
// sets with induced edges; the first len(targets) local nodes are the
// readout rows.
type ShaDow struct {
	Graph   *graph.CSR
	Fanouts []int // localized-subgraph expansion fanouts, e.g. [10, 5]
	Layers  int   // number of GNN layers run on the subgraph
}

// NewShaDow returns a ShaDow sampler with the paper's defaults for a
// three-layer model: expansion fanouts [10, 5].
func NewShaDow(g *graph.CSR, fanouts []int, layers int) *ShaDow {
	return &ShaDow{Graph: g, Fanouts: fanouts, Layers: layers}
}

// Name implements Sampler.
func (sh *ShaDow) Name() string { return "shadow" }

// NumLayers implements Sampler.
func (sh *ShaDow) NumLayers() int { return sh.Layers }

// Sample implements Sampler.
func (sh *ShaDow) Sample(rng *rand.Rand, targets []graph.NodeID) *MiniBatch {
	// Hop expansion with dedup across the whole batch: targets first,
	// then each hop picks from the nodes the hop before it added.
	x := newIndex(sh.Graph.NumNodes)
	idx := *x
	nodes := make([]graph.NodeID, 0, len(targets)*4)
	for _, v := range targets {
		idx.add(&nodes, v)
	}
	numTargets := len(nodes)
	p := newPicker(sh.Graph, rng, sh.Fanouts)
	lo := 0
	for hop, fanout := range sh.Fanouts {
		p.hop, p.fanout = hop, fanout
		for hi := len(nodes); lo < hi; lo++ {
			for _, u := range p.pick(nodes[lo]) {
				idx.add(&nodes, u)
			}
		}
	}

	// The induced subgraph: every arc of the graph whose endpoints are
	// both in the set.
	sub := &Block{
		SrcNodes:   nodes,
		NumDst:     len(nodes),
		NumTargets: numTargets,
		RowPtr:     make([]int32, len(nodes)+1),
		Col:        make([]int32, 0, len(nodes)*4),
	}
	for i, v := range nodes {
		for _, u := range sh.Graph.Neighbors(v) {
			if j := idx[u]; j != 0 {
				sub.Col = append(sub.Col, j-1)
			}
		}
		sub.RowPtr[i+1] = int32(len(sub.Col))
	}
	idx.clear(nodes)
	indexPool.Put(x)
	mb := &MiniBatch{Targets: targets, Sub: sub}
	mb.Stats.InputNodes = int64(len(sub.SrcNodes))
	mb.Stats.SampledEdges = int64(len(sub.Col)) * int64(sh.Layers)
	mb.Stats.LayerEdges = make([]int64, sh.Layers)
	for l := range mb.Stats.LayerEdges {
		mb.Stats.LayerEdges[l] = int64(len(sub.Col))
	}
	return mb
}
