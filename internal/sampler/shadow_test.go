package sampler

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"argo/internal/graph"
)

func TestShaDowSubgraphStructure(t *testing.T) {
	g, _ := sampleGraph(t, 20)
	sh := NewShaDow(g, []int{10, 5}, 3)
	rng := rand.New(rand.NewSource(21))
	targets := someTargets(g, 16, rng)
	mb := sh.Sample(rng, targets)

	if mb.Sub == nil || mb.Blocks != nil {
		t.Fatal("ShaDow batches must carry a Subgraph, not Blocks")
	}
	if err := mb.Sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if mb.Sub.NumTargets != len(targets) {
		t.Fatalf("NumTargets = %d, want %d", mb.Sub.NumTargets, len(targets))
	}
	for i, v := range targets {
		if mb.Sub.SrcNodes[i] != v {
			t.Fatalf("target %d not at subgraph position %d", v, i)
		}
	}
}

func TestShaDowInducedEdgesAreReal(t *testing.T) {
	g, _ := sampleGraph(t, 22)
	sh := NewShaDow(g, []int{5, 3}, 2)
	rng := rand.New(rand.NewSource(23))
	mb := sh.Sample(rng, someTargets(g, 8, rng))
	sub := mb.Sub
	for i := range sub.SrcNodes {
		v := sub.SrcNodes[i]
		for _, lj := range sub.Neighbors(i) {
			u := sub.SrcNodes[lj]
			if !slices.Contains(g.Neighbors(v), u) {
				t.Fatalf("induced non-edge %d→%d", v, u)
			}
		}
	}
}

// ShaDow must include *every* arc between included nodes (it is an induced
// subgraph, not a sampled one).
func TestShaDowInducedCompleteness(t *testing.T) {
	g, _ := sampleGraph(t, 24)
	sh := NewShaDow(g, []int{4, 3}, 2)
	rng := rand.New(rand.NewSource(25))
	mb := sh.Sample(rng, someTargets(g, 8, rng))
	sub := mb.Sub
	inSet := make(map[graph.NodeID]int32, len(sub.SrcNodes))
	for i, v := range sub.SrcNodes {
		inSet[v] = int32(i)
	}
	for i, v := range sub.SrcNodes {
		want := 0
		for _, u := range g.Neighbors(v) {
			if _, ok := inSet[u]; ok {
				want++
			}
		}
		if got := len(sub.Neighbors(i)); got != want {
			t.Fatalf("node %d induced degree %d, want %d", v, got, want)
		}
	}
}

// The ShaDow selling point: subgraph size is bounded by the expansion
// fanouts regardless of model depth (no neighbour explosion).
func TestShaDowBoundedByFanouts(t *testing.T) {
	g, _ := sampleGraph(t, 26)
	rng := rand.New(rand.NewSource(27))
	targets := someTargets(g, 10, rng)
	sh := NewShaDow(g, []int{4, 3}, 3)
	mb := sh.Sample(rng, targets)
	// Worst case: 10 targets × (1 + 4 + 4·3) = 170 nodes.
	bound := len(targets) * (1 + 4 + 4*3)
	if len(mb.Sub.SrcNodes) > bound {
		t.Fatalf("subgraph has %d nodes, bound %d", len(mb.Sub.SrcNodes), bound)
	}
}

func TestShaDowDuplicateTargets(t *testing.T) {
	g, _ := sampleGraph(t, 28)
	sh := NewShaDow(g, []int{3, 2}, 2)
	rng := rand.New(rand.NewSource(29))
	v := graph.NodeID(5)
	mb := sh.Sample(rng, []graph.NodeID{v, v, v})
	if mb.Sub.NumTargets != 1 {
		t.Fatalf("duplicate targets must collapse: NumTargets = %d", mb.Sub.NumTargets)
	}
}

func TestShaDowStats(t *testing.T) {
	g, _ := sampleGraph(t, 30)
	layers := 3
	sh := NewShaDow(g, []int{5, 3}, layers)
	rng := rand.New(rand.NewSource(31))
	mb := sh.Sample(rng, someTargets(g, 12, rng))
	if mb.Stats.InputNodes != int64(len(mb.Sub.SrcNodes)) {
		t.Fatal("InputNodes must equal subgraph size")
	}
	// The GNN touches every induced edge once per layer.
	want := int64(mb.Sub.NumEdges()) * int64(layers)
	if mb.Stats.SampledEdges != want {
		t.Fatalf("SampledEdges = %d, want %d", mb.Stats.SampledEdges, want)
	}
	if len(mb.Stats.LayerEdges) != layers {
		t.Fatalf("LayerEdges has %d entries, want %d", len(mb.Stats.LayerEdges), layers)
	}
}

// Property: subgraph invariants hold for arbitrary targets/fanouts, and
// targets always lead the node list.
func TestQuickShaDowInvariants(t *testing.T) {
	g, _ := sampleGraph(t, 32)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := NewShaDow(g, []int{1 + rng.Intn(6), 1 + rng.Intn(4)}, 2)
		targets := someTargets(g, 1+rng.Intn(20), rng)
		mb := sh.Sample(rng, targets)
		if mb.Sub.Validate() != nil {
			return false
		}
		for i, v := range targets {
			if mb.Sub.SrcNodes[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShaDowNameAndLayers(t *testing.T) {
	g, _ := sampleGraph(t, 33)
	sh := NewShaDow(g, []int{10, 5}, 3)
	if sh.Name() != "shadow" || sh.NumLayers() != 3 {
		t.Fatal("metadata wrong")
	}
	ns := NewNeighbor(g, []int{15, 10, 5})
	if ns.Name() != "neighbor" || ns.NumLayers() != 3 {
		t.Fatal("metadata wrong")
	}
}
