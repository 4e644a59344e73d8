// Package sampler builds the mini-batches the GNN trains and serves on.
// Every sampler is one block builder — walk the destinations, pick each
// one's neighbours, give every node its first-touch local index — under
// a different per-destination pick: Neighbor draws up to a fan-out of
// the adjacency, Partition draws from the neighbours inside an allowed
// set, FullNeighbor takes the whole adjacency (SamplePruned: nothing for
// a known destination), and ShaDow expands its targets hop by hop with
// Neighbor's draw and runs every layer on the subgraph they induce.
// Sources shared between destinations are stored once per batch, which
// is the mechanism behind the paper's Fig. 5/6 workload-inflation
// effect: smaller mini-batches share fewer neighbours, so the total
// sampled workload per epoch grows with the number of ARGO processes.
package sampler

import (
	"fmt"

	"argo/internal/graph"
)

// Block is one batch topology: one layer of a message-flow graph (the
// analogue of a DGL MFG), or a whole ShaDow subgraph. SrcNodes holds
// global node IDs; by construction its first NumDst entries are the
// destination nodes themselves, so a destination's own previous-layer
// representation is always available to the model (GraphSAGE concat,
// GCN self term). Adjacency is stored dst-major in local src indices.
//
// A ShaDow subgraph is the block every layer runs on: every node is a
// destination (NumDst == len(SrcNodes)), Col holds the induced arcs, and
// the first NumTargets nodes are the batch targets (readout rows).
type Block struct {
	SrcNodes   []graph.NodeID // global IDs; SrcNodes[:NumDst] are the dst nodes
	NumDst     int
	NumTargets int     // ShaDow subgraphs only
	RowPtr     []int32 // len NumDst+1
	Col        []int32 // local indices into SrcNodes
}

// NumSrc returns the number of source nodes feeding this block.
func (b *Block) NumSrc() int { return len(b.SrcNodes) }

// NumEdges returns the number of sampled message edges in the block.
func (b *Block) NumEdges() int { return len(b.Col) }

// Neighbors returns the local src indices aggregated by local dst i.
func (b *Block) Neighbors(i int) []int32 {
	return b.Col[b.RowPtr[i]:b.RowPtr[i+1]]
}

// Validate checks the block's structural invariants.
func (b *Block) Validate() error {
	if b.NumDst > len(b.SrcNodes) || b.NumTargets > b.NumDst {
		return fmt.Errorf("sampler: block has %d targets, %d dst, %d src", b.NumTargets, b.NumDst, len(b.SrcNodes))
	}
	if len(b.RowPtr) != b.NumDst+1 || b.RowPtr[0] != 0 {
		return fmt.Errorf("sampler: bad RowPtr")
	}
	for i := 0; i < b.NumDst; i++ {
		if b.RowPtr[i+1] < b.RowPtr[i] {
			return fmt.Errorf("sampler: RowPtr not monotone at %d", i)
		}
	}
	if int(b.RowPtr[b.NumDst]) != len(b.Col) {
		return fmt.Errorf("sampler: RowPtr end %d != len(Col) %d", b.RowPtr[b.NumDst], len(b.Col))
	}
	for _, c := range b.Col {
		if c < 0 || int(c) >= len(b.SrcNodes) {
			return fmt.Errorf("sampler: column %d out of range", c)
		}
	}
	return nil
}

// MiniBatch is one sampled unit of work: either a stack of blocks
// (Neighbor Sampling) or an induced subgraph (ShaDow), never both.
type MiniBatch struct {
	Targets []graph.NodeID
	Blocks  []Block // forward order: Blocks[0] is consumed by GNN layer 0
	Sub     *Block  // non-nil for ShaDow batches: the one block of every layer
	Stats   Stats
}

// InputNodes returns the global IDs whose features must be gathered to
// run the model on this batch.
func (mb *MiniBatch) InputNodes() []graph.NodeID {
	if mb.Sub != nil {
		return mb.Sub.SrcNodes
	}
	if len(mb.Blocks) == 0 {
		return mb.Targets
	}
	return mb.Blocks[0].SrcNodes
}

// Stats accumulates the sampling workload of a batch (or an epoch, via
// Accumulate). SampledEdges is the quantity the paper plots in Fig. 6.
type Stats struct {
	InputNodes   int64
	SampledEdges int64
	LayerEdges   []int64
}

// Accumulate adds other into s, summing layer counts positionally.
func (s *Stats) Accumulate(other Stats) {
	s.InputNodes += other.InputNodes
	s.SampledEdges += other.SampledEdges
	for len(s.LayerEdges) < len(other.LayerEdges) {
		s.LayerEdges = append(s.LayerEdges, 0)
	}
	for i, e := range other.LayerEdges {
		s.LayerEdges[i] += e
	}
}
