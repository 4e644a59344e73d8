package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustFromEdges(t *testing.T, n int, edges []Edge, sym bool) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges, sym)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}}, false)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("directed edges wrong")
	}
}

func TestFromEdgesSymmetrize(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}}, true)
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("symmetrize missing reverse arcs")
	}
}

func TestFromEdgesRemovesSelfLoopsAndDuplicates(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}}, false)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}, false); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}, false); err == nil {
		t.Fatal("expected negative-node error")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustFromEdges(t, 5, []Edge{{0, 4}, {0, 2}, {0, 1}, {0, 3}}, false)
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

// Property: FromEdges(…, true) symmetrizes: every arc u→v has its v→u.
func TestQuickSymmetrizedHasEveryReverseArc(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))})
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				if !g.HasEdge(v, NodeID(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of degrees equals arc count, and HasEdge agrees with
// Neighbors membership.
func TestQuickDegreeSumAndHasEdge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		var edges []Edge
		for i := 0; i < n*3; i++ {
			edges = append(edges, Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))})
		}
		g, err := FromEdges(n, edges, false)
		if err != nil {
			return false
		}
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(NodeID(v)))
			for _, u := range g.Neighbors(NodeID(v)) {
				if !g.HasEdge(NodeID(v), u) {
					return false
				}
			}
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAvgDegree(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}}, false)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 1.0 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{0, 1}, {1, 2}}, false)
	g.Col[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must catch out-of-range column")
	}
}

// HasEdge reports whether the arc u→v is present, via binary search.
func (g *CSR) HasEdge(u, v NodeID) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}
