package sampler

import (
	"math/rand"
	"testing"

	"argo/internal/graph"
)

func TestSaintRWStructure(t *testing.T) {
	g, _ := sampleGraph(t, 44)
	srw := NewSaintRW(g, 3, 4, 2)
	rng := rand.New(rand.NewSource(9))
	targets := someTargets(g, 10, rng)
	mb := srw.Sample(rng, targets)
	if err := mb.Sub.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, v := range targets {
		if mb.Sub.Nodes[i] != v {
			t.Fatalf("target %d not leading the node list", v)
		}
	}
	if srw.Name() != "saint-rw" || srw.NumLayers() != 2 {
		t.Fatal("metadata wrong")
	}
}

// Walk-visited nodes bound: targets + walks × length.
func TestSaintRWSizeBound(t *testing.T) {
	g, _ := sampleGraph(t, 45)
	srw := NewSaintRW(g, 2, 5, 2)
	rng := rand.New(rand.NewSource(10))
	targets := someTargets(g, 6, rng)
	mb := srw.Sample(rng, targets)
	bound := len(targets) * (1 + 2*5)
	if len(mb.Sub.Nodes) > bound {
		t.Fatalf("subgraph has %d nodes, walk bound %d", len(mb.Sub.Nodes), bound)
	}
}

// Walks follow edges: every non-target node must be reachable from some
// target within WalkLen hops (weak check: it has an in-batch neighbour).
func TestSaintRWConnectivity(t *testing.T) {
	g, _ := sampleGraph(t, 46)
	srw := NewSaintRW(g, 4, 3, 2)
	rng := rand.New(rand.NewSource(11))
	targets := someTargets(g, 6, rng)
	mb := srw.Sample(rng, targets)
	isTarget := map[graph.NodeID]bool{}
	for _, v := range targets {
		isTarget[v] = true
	}
	for i, v := range mb.Sub.Nodes {
		if isTarget[v] {
			continue
		}
		if len(mb.Sub.Neighbors(i)) == 0 {
			// A walked-to node always has at least the edge it was
			// reached through, unless that predecessor was dropped —
			// impossible since walks only add nodes.
			t.Fatalf("walk node %d is isolated in the subgraph", v)
		}
	}
}

func TestSaintRWDeterministic(t *testing.T) {
	g, _ := sampleGraph(t, 47)
	srw := NewSaintRW(g, 3, 4, 2)
	targets := someTargets(g, 8, rand.New(rand.NewSource(12)))
	a := srw.Sample(rand.New(rand.NewSource(13)), targets)
	b := srw.Sample(rand.New(rand.NewSource(13)), targets)
	if len(a.Sub.Nodes) != len(b.Sub.Nodes) {
		t.Fatal("same seed, different subgraphs")
	}
	for i := range a.Sub.Nodes {
		if a.Sub.Nodes[i] != b.Sub.Nodes[i] {
			t.Fatal("same seed, different node order")
		}
	}
}
