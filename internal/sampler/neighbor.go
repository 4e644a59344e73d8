package sampler

import (
	"math/rand"

	"argo/internal/graph"
)

// Sampler produces a MiniBatch for a set of target nodes. Implementations
// must be safe for concurrent use from multiple sampling workers as long
// as each call receives its own *rand.Rand.
type Sampler interface {
	// Sample builds the mini-batch for the given targets.
	Sample(rng *rand.Rand, targets []graph.NodeID) *MiniBatch
	// Name identifies the algorithm ("neighbor", "shadow").
	Name() string
	// NumLayers returns how many GNN layers the produced batches feed.
	NumLayers() int
}

// Neighbor implements layered neighbor sampling (Hamilton et al., the
// paper's Neighbor Sampler). For an L-layer model with Fanouts
// [f_L, ..., f_1] it repeats L times: for every node in the current
// frontier, sample up to f distinct neighbours; their deduplicated
// union becomes the next frontier.
type Neighbor struct {
	Graph   *graph.CSR
	Fanouts []int // Fanouts[0] applies to the layer touching the targets

	allowed bitset // non-nil: a Partition's node set
}

// NewNeighbor returns a neighbor sampler. The paper's configuration is
// fanouts [15, 10, 5] for a three-layer model.
func NewNeighbor(g *graph.CSR, fanouts []int) *Neighbor {
	return &Neighbor{Graph: g, Fanouts: fanouts}
}

// Name implements Sampler.
func (ns *Neighbor) Name() string { return "neighbor" }

// NumLayers implements Sampler.
func (ns *Neighbor) NumLayers() int { return len(ns.Fanouts) }

// Sample implements Sampler. Blocks are returned in forward order:
// Blocks[0] consumes raw features, Blocks[L-1] produces target outputs.
func (ns *Neighbor) Sample(rng *rand.Rand, targets []graph.NodeID) *MiniBatch {
	p := newPicker(ns.Graph, rng, ns.Fanouts)
	p.allowed = ns.allowed
	return sampleLayers(p, targets, len(ns.Fanouts))
}

// sampleLayers is the layered loop of every block sampler: starting from
// the targets and building from the output layer inwards, each block's
// sources become the next block's destinations. p.fanouts[0] applies to
// the layer touching the targets; nil fanouts take whole adjacencies.
func sampleLayers(p *picker, targets []graph.NodeID, layers int) *MiniBatch {
	mb := &MiniBatch{Targets: targets, Blocks: make([]Block, layers)}
	mb.Stats.LayerEdges = make([]int64, layers)
	dst := targets
	for li := layers - 1; li >= 0; li-- {
		p.fanout = wholeAdjacency
		if p.fanouts != nil {
			p.fanout = p.fanouts[layers-1-li]
		}
		b := buildBlock(dst, p)
		mb.Blocks[li] = b
		mb.Stats.LayerEdges[li] = int64(b.NumEdges())
		mb.Stats.SampledEdges += int64(b.NumEdges())
		dst = b.SrcNodes
	}
	mb.Stats.InputNodes = int64(len(mb.Blocks[0].SrcNodes))
	return mb
}

// buildBlock picks the neighbours of every dst node and compacts them
// into a Block: source nodes shared between destinations are stored
// once (the reuse the paper's Fig. 5 illustrates).
func buildBlock(dst []graph.NodeID, p *picker) Block {
	room := len(dst) // a whole adjacency has no fan-out to size from
	if p.fanout != wholeAdjacency {
		room = len(dst) * p.fanout / 2
	}
	b := Block{
		SrcNodes: make([]graph.NodeID, len(dst), len(dst)+room),
		NumDst:   len(dst),
		RowPtr:   make([]int32, len(dst)+1),
		Col:      make([]int32, 0, room),
	}
	copy(b.SrcNodes, dst)
	// dst may repeat an id: every position stays a destination and the
	// id resolves to its last one.
	idx := make(nodeIndex, 2*len(dst))
	for i, v := range dst {
		idx[v] = int32(i)
	}
	for i, v := range dst {
		for _, u := range p.pick(v) {
			b.Col = append(b.Col, idx.add(&b.SrcNodes, u))
		}
		b.RowPtr[i+1] = int32(len(b.Col))
	}
	return b
}

// nodeIndex maps the global ids of a batch's node list to their
// positions in it — the one id → local index structure of the package.
type nodeIndex map[graph.NodeID]int32

// add returns v's position in *nodes, appending v on first touch.
func (x nodeIndex) add(nodes *[]graph.NodeID, v graph.NodeID) int32 {
	j, ok := x[v]
	if !ok {
		j = int32(len(*nodes))
		*nodes = append(*nodes, v)
		x[v] = j
	}
	return j
}

// wholeAdjacency is the fan-out that takes every neighbour.
const wholeAdjacency = -1

// picker is the per-destination pick a sampler is a setting of: which of
// a node's neighbours feed it. It is a deterministic function of (v, rng
// state), so the produced blocks depend only on the job seed, and holds
// the scratch of one Sample call.
type picker struct {
	g       *graph.CSR
	rng     *rand.Rand
	fanouts []int                   // per hop outwards from the targets
	fanout  int                     // the current hop's: at most this many per destination, or wholeAdjacency
	allowed bitset                  // non-nil: only these ids exist (Partition)
	known   func(graph.NodeID) bool // non-nil: a destination it holds for picks nothing (SamplePruned)

	reservoir []graph.NodeID // capacity: the largest fan-out
}

func newPicker(g *graph.CSR, rng *rand.Rand, fanouts []int) *picker {
	m := 0
	for _, f := range fanouts {
		m = max(m, f)
	}
	return &picker{g: g, rng: rng, fanouts: fanouts, reservoir: make([]graph.NodeID, m)}
}

// pick returns the neighbours of v that feed it, valid until the next
// call: the whole adjacency when it has at most fanout entries, else
// fanout distinct entries by reservoir sampling — O(degree) time, no
// allocation, one rng draw per entry past the fanout-th.
func (p *picker) pick(v graph.NodeID) []graph.NodeID {
	if p.known != nil && p.known(v) {
		return nil
	}
	adj := p.g.Neighbors(v)
	if p.allowed != nil {
		return p.pickAllowed(adj)
	}
	if p.fanout == wholeAdjacency || len(adj) <= p.fanout {
		return adj
	}
	out := p.reservoir[:p.fanout]
	copy(out, adj)
	for i := p.fanout; i < len(adj); i++ {
		if j := p.rng.Intn(i + 1); j < p.fanout {
			out[j] = adj[i]
		}
	}
	return out
}

// pickAllowed is pick's reservoir over the allowed entries of adj alone.
// It is a loop of its own because copying the allowed entries out and
// running the loop above on them measured slower where it matters
// (BenchmarkLocalEpoch: 5 runs of 6, and 70 more allocations an epoch
// for a buffer as long as the largest hub's adjacency), and a filter test
// in that loop would tax every unfiltered draw. For the k-th allowed
// entry (1-based) past the fanout-th it draws rng.Intn(k) — exactly
// pick's stream when nothing is filtered — and nothing for a filtered
// one.
func (p *picker) pickAllowed(adj []graph.NodeID) []graph.NodeID {
	out, seen := p.reservoir[:0], 0
	for _, u := range adj {
		if !p.allowed.has(u) {
			continue
		}
		seen++
		if len(out) < p.fanout {
			out = append(out, u)
		} else if j := p.rng.Intn(seen); j < p.fanout {
			out[j] = u
		}
	}
	return out
}
