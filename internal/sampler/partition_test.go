package sampler

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"argo/internal/graph"
)

// allNodes returns [0, n) as a node list.
func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// TestPartitionFullSetMatchesNeighbor: with every node allowed, the
// filtered reservoir consumes the rng in the same pattern as the plain
// sampler, so the produced mini-batches are bit-identical.
func TestPartitionFullSetMatchesNeighbor(t *testing.T) {
	g, _ := sampleGraph(t, 3)
	fanouts := []int{10, 5}
	ns := NewNeighbor(g, fanouts)
	ps := NewPartition(g, fanouts, allNodes(g.NumNodes))
	if ps.AllowedCount() != g.NumNodes {
		t.Fatalf("allowed %d nodes, want %d", ps.AllowedCount(), g.NumNodes)
	}

	for trial := 0; trial < 5; trial++ {
		seed := int64(100 + trial)
		targets := someTargets(g, 24, rand.New(rand.NewSource(seed)))
		a := ns.Sample(rand.New(rand.NewSource(seed)), targets)
		b := ps.Sample(rand.New(rand.NewSource(seed)), targets)
		if !reflect.DeepEqual(a.Blocks, b.Blocks) {
			t.Fatalf("trial %d: full-set partition blocks differ from neighbor blocks", trial)
		}
	}
}

// TestPartitionBoundsFrontier: no sampled source node ever leaves the
// allowed set, at any layer.
func TestPartitionBoundsFrontier(t *testing.T) {
	g, _ := sampleGraph(t, 4)
	rng := rand.New(rand.NewSource(9))

	// Allow an arbitrary half of the graph, then make sure the targets
	// are inside it.
	allowed := make([]graph.NodeID, 0, g.NumNodes/2)
	for v := 0; v < g.NumNodes; v += 2 {
		allowed = append(allowed, graph.NodeID(v))
	}
	ps := NewPartition(g, []int{15, 10, 5}, allowed)
	targets := allowed[:32]

	mb := ps.Sample(rng, targets)
	for li, b := range mb.Blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d: %v", li, err)
		}
		for _, v := range b.SrcNodes {
			if !ps.Allowed(v) {
				t.Fatalf("block %d: source node %d outside allowed set", li, v)
			}
		}
	}
	if mb.Stats.InputNodes > int64(ps.AllowedCount()) {
		t.Fatalf("input nodes %d exceed allowed set %d", mb.Stats.InputNodes, ps.AllowedCount())
	}
}

// TestPartitionDeterministic: same seed, same targets, same batch.
func TestPartitionDeterministic(t *testing.T) {
	g, _ := sampleGraph(t, 5)
	allowed := make([]graph.NodeID, 0, g.NumNodes)
	for v := 0; v < g.NumNodes; v++ {
		if v%3 != 0 {
			allowed = append(allowed, graph.NodeID(v))
		}
	}
	ps := NewPartition(g, []int{10, 5}, allowed)
	targets := allowed[10:42]

	a := ps.Sample(rand.New(rand.NewSource(7)), targets)
	b := ps.Sample(rand.New(rand.NewSource(7)), targets)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different mini-batches")
	}
	c := ps.Sample(rand.New(rand.NewSource(8)), targets)
	if reflect.DeepEqual(a.Blocks, c.Blocks) {
		t.Fatal("different seeds produced identical blocks (suspicious)")
	}
}

// TestPartitionShardSets: allowed sets built from a real partition's
// owned+halo lists keep every frontier shard-resident.
func TestPartitionShardSets(t *testing.T) {
	g, _ := sampleGraph(t, 6)
	parts := graph.GreedyPartition(g, 4)
	owned := make([][]graph.NodeID, 4)
	for v, p := range parts.Assign {
		owned[p] = append(owned[p], graph.NodeID(v))
	}
	for s := 0; s < 4; s++ {
		halo := map[graph.NodeID]bool{}
		for _, v := range owned[s] {
			for _, u := range g.Neighbors(v) {
				if parts.Assign[u] != int32(s) {
					halo[u] = true
				}
			}
		}
		haloList := make([]graph.NodeID, 0, len(halo))
		for u := range halo {
			haloList = append(haloList, u)
		}
		ps := NewPartition(g, []int{10, 5}, owned[s], haloList)
		n := len(owned[s])
		if n > 16 {
			n = 16
		}
		mb := ps.Sample(rand.New(rand.NewSource(int64(s))), owned[s][:n])
		for li, b := range mb.Blocks {
			for _, v := range b.SrcNodes {
				if !ps.Allowed(v) {
					t.Fatalf("shard %d block %d: node %d escaped owned+halo", s, li, v)
				}
			}
		}
	}
}

// Allowed reports whether node v is inside the partition-local set.
func (ps *Partition) Allowed(v graph.NodeID) bool { return ps.allowed.has(v) }

// AllowedCount returns the number of nodes in the allowed set.
func (ps *Partition) AllowedCount() int {
	n := 0
	for _, w := range ps.allowed {
		n += bits.OnesCount64(w)
	}
	return n
}
