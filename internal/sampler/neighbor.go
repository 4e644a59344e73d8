package sampler

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"argo/internal/graph"
)

// Sampler produces a MiniBatch for a set of target nodes. This package's
// samplers make every random choice from streams keyed by one draw of
// the rng per call. Implementations are safe for concurrent use as long
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
	x := newIndex(p.g.NumNodes)
	idx := *x
	dst := targets
	for li := layers - 1; li >= 0; li-- {
		p.hop, p.fanout = layers-1-li, wholeAdjacency
		if p.fanouts != nil {
			p.fanout = p.fanouts[p.hop]
		}
		b := buildBlock(dst, p, idx)
		idx.clear(b.SrcNodes)
		mb.Blocks[li] = b
		mb.Stats.LayerEdges[li] = int64(b.NumEdges())
		mb.Stats.SampledEdges += int64(b.NumEdges())
		dst = b.SrcNodes
	}
	indexPool.Put(x)
	mb.Stats.InputNodes = int64(len(mb.Blocks[0].SrcNodes))
	return mb
}

// buildBlock picks the neighbours of every dst node and compacts them
// into a Block: source nodes shared between destinations are stored
// once (the reuse the paper's Fig. 5 illustrates). idx must be clean;
// it comes back holding the block's SrcNodes.
func buildBlock(dst []graph.NodeID, p *picker, idx nodeIndex) Block {
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
	for i, v := range dst {
		idx[v] = int32(i) + 1
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
// positions in it — the one id → local index structure of the package:
// a dense table over every node id holding position+1, 0 for absent.
// Tables come from indexPool and go back to it clean.
type nodeIndex []int32

var indexPool sync.Pool

// newIndex returns a clean index over ids [0, n).
func newIndex(n int) *nodeIndex {
	if x, _ := indexPool.Get().(*nodeIndex); x != nil && len(*x) >= n {
		return x
	}
	x := make(nodeIndex, n)
	return &x
}

// add returns v's position in *nodes, appending v on first touch.
func (x nodeIndex) add(nodes *[]graph.NodeID, v graph.NodeID) int32 {
	j := x[v]
	if j == 0 {
		*nodes = append(*nodes, v)
		j = int32(len(*nodes))
		x[v] = j
	}
	return j - 1
}

// clear empties x, which must hold no ids outside nodes.
func (x nodeIndex) clear(nodes []graph.NodeID) {
	for _, v := range nodes {
		x[v] = 0
	}
}

// wholeAdjacency is the fan-out that takes every neighbour.
const wholeAdjacency = -1

// golden is SplitMix64's stream increment, 2⁶⁴/φ.
const golden = 0x9e3779b97f4a7c15

// Mix64 is SplitMix64's output for state x; the stream's next state is
// x+golden. The engine derives its batch seeds from it, and every pick
// draws from a stream of it.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// picker is the per-destination pick a sampler is a setting of: which of
// a node's neighbours feed it. A pick is a pure function of (key, hop,
// v), where key is drawn once per Sample call from its rng, so a node's
// neighbours do not depend on which other nodes share its batch. It
// holds the scratch of one Sample call.
type picker struct {
	g       *graph.CSR
	key     uint64
	fanouts []int                   // per hop outwards from the targets
	hop     int                     // the current hop, 0 at the targets
	fanout  int                     // the current hop's: at most this many per destination, or wholeAdjacency
	allowed bitset                  // non-nil: only these ids exist (Partition)
	known   func(graph.NodeID) bool // non-nil: a destination it holds for picks nothing (SamplePruned)

	out  []graph.NodeID // capacity: the largest fan-out
	kept []graph.NodeID // the allowed entries of the current adjacency
}

func newPicker(g *graph.CSR, rng *rand.Rand, fanouts []int) *picker {
	m := 0
	for _, f := range fanouts {
		m = max(m, f)
	}
	return &picker{g: g, key: uint64(rng.Int63()), fanouts: fanouts, out: make([]graph.NodeID, 0, m)}
}

// pick returns the neighbours of v that feed it, valid until the next
// call: the whole adjacency when it has at most fanout entries, else
// fanout distinct entries by Floyd's algorithm — exactly fanout draws
// from v's own SplitMix64 stream, each checked against the ones already
// chosen, so O(fanout²) time whatever the degree, and no allocation.
// Under an allowed set (Partition) the draw runs on the allowed entries
// alone, which are the whole adjacency when every entry is allowed.
func (p *picker) pick(v graph.NodeID) []graph.NodeID {
	if p.known != nil && p.known(v) {
		return nil
	}
	adj := p.g.Neighbors(v)
	if p.allowed != nil {
		p.kept = p.kept[:0]
		for _, u := range adj {
			if p.allowed.has(u) {
				p.kept = append(p.kept, u)
			}
		}
		adj = p.kept
	}
	if p.fanout == wholeAdjacency || len(adj) <= p.fanout {
		return adj
	}
	s := p.key ^ Mix64(uint64(p.hop)<<32|uint64(uint32(v)))
	out := p.out[:0] // adjacency positions until the last loop
	for j := len(adj) - p.fanout; j < len(adj); j++ {
		i, _ := bits.Mul64(Mix64(s), uint64(j+1)) // uniform in [0, j]
		s += golden
		if slices.Contains(out, graph.NodeID(i)) {
			i = uint64(j)
		}
		out = append(out, graph.NodeID(i))
	}
	for k, i := range out {
		out[k] = adj[i]
	}
	return out
}
