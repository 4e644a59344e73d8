package sampler

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"argo/internal/graph"
)

func sampleGraph(t testing.TB, seed int64) (*graph.CSR, []int32) {
	t.Helper()
	g, labels, err := graph.Generate(graph.GenSpec{
		NumNodes: 600, NumEdges: 5000, NumClasses: 4,
		Homophily: 0.6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

func someTargets(g *graph.CSR, n int, rng *rand.Rand) []graph.NodeID {
	targets := make([]graph.NodeID, 0, n)
	seen := map[graph.NodeID]bool{}
	for len(targets) < n {
		v := graph.NodeID(rng.Intn(g.NumNodes))
		if !seen[v] {
			seen[v] = true
			targets = append(targets, v)
		}
	}
	return targets
}

func TestNeighborBlockStructure(t *testing.T) {
	g, _ := sampleGraph(t, 1)
	ns := NewNeighbor(g, []int{15, 10, 5})
	rng := rand.New(rand.NewSource(2))
	targets := someTargets(g, 32, rng)
	mb := ns.Sample(rng, targets)

	if len(mb.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(mb.Blocks))
	}
	for li := range mb.Blocks {
		if err := mb.Blocks[li].Validate(); err != nil {
			t.Fatalf("block %d: %v", li, err)
		}
	}
	// The output block's destinations are exactly the targets.
	top := mb.Blocks[len(mb.Blocks)-1]
	if top.NumDst != len(targets) {
		t.Fatalf("top block has %d dst, want %d", top.NumDst, len(targets))
	}
	for i, v := range targets {
		if top.SrcNodes[i] != v {
			t.Fatalf("dst %d is %d, want target %d", i, top.SrcNodes[i], v)
		}
	}
	// Chaining: each block's src set is the next-inner block's dst set.
	for li := len(mb.Blocks) - 1; li > 0; li-- {
		outer, inner := mb.Blocks[li], mb.Blocks[li-1]
		if inner.NumDst != outer.NumSrc() {
			t.Fatalf("layer %d: inner dst %d != outer src %d", li, inner.NumDst, outer.NumSrc())
		}
		for i, v := range outer.SrcNodes {
			if inner.SrcNodes[i] != v {
				t.Fatalf("layer %d: src/dst chain broken at %d", li, i)
			}
		}
	}
	if int64(len(mb.InputNodes())) != mb.Stats.InputNodes {
		t.Fatal("Stats.InputNodes mismatch")
	}
}

func TestNeighborFanoutRespected(t *testing.T) {
	g, _ := sampleGraph(t, 3)
	fanouts := []int{7, 4, 2}
	ns := NewNeighbor(g, fanouts)
	rng := rand.New(rand.NewSource(4))
	mb := ns.Sample(rng, someTargets(g, 16, rng))
	// Blocks are in forward order; fanouts[0] applies to the layer
	// touching the targets, i.e. the LAST block.
	for bi, b := range mb.Blocks {
		f := fanouts[len(fanouts)-1-bi]
		for i := 0; i < b.NumDst; i++ {
			n := len(b.Neighbors(i))
			if n > f {
				t.Fatalf("block %d dst %d sampled %d > fanout %d", bi, i, n, f)
			}
			deg := g.Degree(b.SrcNodes[i])
			if deg <= f && n != deg {
				t.Fatalf("block %d dst %d: degree %d ≤ fanout but sampled %d", bi, i, deg, n)
			}
		}
	}
}

func TestNeighborSampledNeighborsAreRealAndDistinct(t *testing.T) {
	g, _ := sampleGraph(t, 5)
	ns := NewNeighbor(g, []int{5, 5})
	rng := rand.New(rand.NewSource(6))
	mb := ns.Sample(rng, someTargets(g, 24, rng))
	for _, b := range mb.Blocks {
		for i := 0; i < b.NumDst; i++ {
			v := b.SrcNodes[i]
			seen := map[int32]bool{}
			for _, li := range b.Neighbors(i) {
				if seen[li] {
					t.Fatalf("dst %d sampled local neighbor %d twice", i, li)
				}
				seen[li] = true
				u := b.SrcNodes[li]
				if !slices.Contains(g.Neighbors(v), u) {
					t.Fatalf("sampled non-edge %d→%d", v, u)
				}
			}
		}
	}
}

func TestNeighborDedupSharesNodes(t *testing.T) {
	g, _ := sampleGraph(t, 7)
	targets := someTargets(g, 64, rand.New(rand.NewSource(9)))
	mb := NewNeighbor(g, []int{10, 10}).Sample(rand.New(rand.NewSource(8)), targets)
	// Every sampled edge would add a source of its own if none were
	// shared; on this hub-heavy fixture many are.
	for li := range mb.Blocks {
		b := &mb.Blocks[li]
		if b.NumSrc()-b.NumDst >= b.NumEdges() {
			t.Fatalf("block %d: %d new sources for %d edges, no neighbour is shared", li, b.NumSrc()-b.NumDst, b.NumEdges())
		}
	}
}

// The Fig. 5/6 property: splitting the same targets into smaller batches
// increases total sampled input nodes (less shared-neighbour reuse).
func TestWorkloadInflationWithSmallerBatches(t *testing.T) {
	g, _ := sampleGraph(t, 10)
	ns := NewNeighbor(g, []int{15, 10, 5})
	train := someTargets(g, 512, rand.New(rand.NewSource(11)))
	inputNodes := func(batch int) int64 {
		rng := rand.New(rand.NewSource(12))
		var total int64
		for lo := 0; lo < len(train); lo += batch {
			total += ns.Sample(rng, train[lo:min(lo+batch, len(train))]).Stats.InputNodes
		}
		return total
	}
	if big, small := inputNodes(256), inputNodes(32); small <= big {
		t.Fatalf("input nodes in batches of 32: %d, not above %d in batches of 256", small, big)
	}
}

func TestNeighborDeterministicWithSeed(t *testing.T) {
	g, _ := sampleGraph(t, 13)
	ns := NewNeighbor(g, []int{5, 5})
	targets := someTargets(g, 16, rand.New(rand.NewSource(14)))
	a := ns.Sample(rand.New(rand.NewSource(15)), targets)
	b := ns.Sample(rand.New(rand.NewSource(15)), targets)
	if a.Stats.SampledEdges != b.Stats.SampledEdges {
		t.Fatal("same seed, different edge counts")
	}
	for li := range a.Blocks {
		ab, bb := a.Blocks[li], b.Blocks[li]
		if len(ab.Col) != len(bb.Col) {
			t.Fatal("same seed, different blocks")
		}
		for i := range ab.Col {
			if ab.Col[i] != bb.Col[i] {
				t.Fatal("same seed, different sampled columns")
			}
		}
	}
}

// Property: block invariants hold for arbitrary batch sizes and fanouts.
func TestQuickNeighborInvariants(t *testing.T) {
	g, _ := sampleGraph(t, 17)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fanouts := []int{1 + rng.Intn(8), 1 + rng.Intn(8)}
		ns := NewNeighbor(g, fanouts)
		targets := someTargets(g, 1+rng.Intn(40), rng)
		mb := ns.Sample(rng, targets)
		for _, b := range mb.Blocks {
			if b.Validate() != nil {
				return false
			}
		}
		var sum int64
		for _, e := range mb.Stats.LayerEdges {
			sum += e
		}
		return sum == mb.Stats.SampledEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNeighborsLowDegreeTakesAll(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	p := newPicker(g, rand.New(rand.NewSource(1)), []int{10})
	p.fanout = 10
	got := p.pick(0)
	if len(got) != 2 {
		t.Fatalf("expected full adjacency, got %v", got)
	}
	// Zero-degree node: no neighbours, no panic.
	if got := p.pick(3); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Accumulate(Stats{InputNodes: 3, SampledEdges: 5, LayerEdges: []int64{2, 3}})
	s.Accumulate(Stats{InputNodes: 1, SampledEdges: 7, LayerEdges: []int64{3, 4}})
	if s.InputNodes != 4 || s.SampledEdges != 12 {
		t.Fatalf("accumulate totals wrong: %+v", s)
	}
	if s.LayerEdges[0] != 5 || s.LayerEdges[1] != 7 {
		t.Fatalf("layer accumulation wrong: %v", s.LayerEdges)
	}
}
