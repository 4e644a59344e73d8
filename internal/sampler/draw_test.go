package sampler

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"argo/internal/graph"
)

// TestPickInclusionIsUniform checks the draw's per-position inclusion
// frequencies: over 20 000 keys, every adjacency position of a hub
// whose degree is far above the fan-out must be picked about
// keys·fanout/degree times. The statistic Σ (O−E)² / (E·(1−fanout/deg))
// is χ² with deg−1 degrees of freedom for a uniform draw; the bound is
// its mean plus four standard deviations. The same holds under an
// allowed set, over the allowed positions alone.
func TestPickInclusionIsUniform(t *testing.T) {
	const deg, fanout, keys = 400, 10, 20000
	edges := make([]graph.Edge, deg)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.NodeID(i + 1)}
	}
	g, err := graph.FromEdges(deg+1, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	odd := NewPartition(g, []int{fanout}, []graph.NodeID{0})
	for v := 1; v <= deg; v += 2 {
		odd.allowed[v>>6] |= 1 << (uint(v) & 63)
	}
	for _, c := range []struct {
		name    string
		allowed bitset
		n       int // positions the draw chooses from
	}{{"unfiltered", nil, deg}, {"odd leaves allowed", odd.allowed, deg / 2}} {
		rng := rand.New(rand.NewSource(1))
		p := newPicker(g, rng, []int{fanout})
		p.fanout, p.allowed = fanout, c.allowed
		counts := make([]int, deg+1) // by neighbour id
		for k := 0; k < keys; k++ {
			p.key = uint64(rng.Int63())
			got := p.pick(0)
			if len(got) != fanout {
				t.Fatalf("%s: picked %d, want %d", c.name, len(got), fanout)
			}
			for i, u := range got {
				if slices.Contains(got[:i], u) || (c.allowed != nil && !c.allowed.has(u)) {
					t.Fatalf("%s: pick %v repeats or leaves the allowed set", c.name, got)
				}
				counts[u]++
			}
		}
		e := float64(keys) * fanout / float64(c.n)
		chi2 := 0.0
		for _, u := range g.Neighbors(0) {
			if c.allowed == nil || c.allowed.has(u) {
				d := float64(counts[u]) - e
				chi2 += d * d / (e * (1 - float64(fanout)/float64(c.n)))
			}
		}
		df := float64(c.n - 1)
		if bound := df + 4*math.Sqrt(2*df); chi2 > bound {
			t.Errorf("%s: χ² = %.1f over %d positions, above %.1f", c.name, chi2, c.n, bound)
		}
	}
}

// TestPicksDependOnlyOnKeyHopNode checks that a node's picks are a
// function of (key, hop, node) alone: under the same rng state, a node
// that is a destination of the same layer in two batches with different
// targets gets the same neighbours in both. This is what lets a batch's
// targets be split across sampling workers without changing the batch.
func TestPicksDependOnlyOnKeyHopNode(t *testing.T) {
	g, _, err := graph.Generate(graph.GenSpec{NumNodes: 2000, NumEdges: 30000, NumClasses: 4, Homophily: 0.6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	half := make([]graph.NodeID, 0, g.NumNodes/2)
	for v := 0; v < g.NumNodes; v += 2 {
		half = append(half, graph.NodeID(v))
	}
	a, b := half[:64], append(slices.Clone(half[32:96]), half[40:48]...) // half[32:64] in both
	for _, s := range []Sampler{NewNeighbor(g, []int{8, 4, 3}), NewPartition(g, []int{8, 4, 3}, half)} {
		picks := func(targets []graph.NodeID) []map[graph.NodeID][]graph.NodeID {
			mb := s.Sample(rand.New(rand.NewSource(5)), targets)
			out := make([]map[graph.NodeID][]graph.NodeID, len(mb.Blocks))
			for l := range mb.Blocks {
				blk := &mb.Blocks[l]
				out[l] = map[graph.NodeID][]graph.NodeID{}
				for i := 0; i < blk.NumDst; i++ {
					var nbrs []graph.NodeID
					for _, j := range blk.Neighbors(i) {
						nbrs = append(nbrs, blk.SrcNodes[j])
					}
					slices.Sort(nbrs)
					v := blk.SrcNodes[i]
					if prev, ok := out[l][v]; ok && !slices.Equal(prev, nbrs) {
						t.Fatalf("%s: layer %d: node %d repeated in one batch picks %v, then %v", s.Name(), l, v, prev, nbrs)
					}
					out[l][v] = nbrs
				}
			}
			return out
		}
		pa, pb := picks(a), picks(b)
		for l := range pa {
			shared := 0
			for v, na := range pa[l] {
				if nb, ok := pb[l][v]; ok {
					shared++
					if !slices.Equal(na, nb) {
						t.Errorf("%s: layer %d: node %d picks %v in one batch, %v in the other", s.Name(), l, v, na, nb)
					}
				}
			}
			if shared < 32 {
				t.Fatalf("%s: layer %d: only %d destinations shared between the batches", s.Name(), l, shared)
			}
		}
	}
}
