package graph

import (
	"reflect"
	"testing"
)

// star(k) builds a graph where node 0 has degree k and the leaves have
// degree 1 — the simplest skew fixture.
func degreeFixture(t *testing.T) *CSR {
	t.Helper()
	// Degrees (out): 0→3, 1→2, 2→2, 3→1, 4→0.
	g, err := FromEdges(5, []Edge{
		{0, 1}, {0, 2}, {0, 3},
		{1, 2},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTopDegreeOrderAndTieBreak(t *testing.T) {
	g := degreeFixture(t)
	// Symmetrized degrees: 0→3, 1→2, 2→2, 3→1, 4→0.
	got := TopDegree(g, 5)
	want := []NodeID{0, 1, 2, 3, 4} // ties (1,2) break ascending by id
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopDegree = %v, want %v", got, want)
	}
	if top2 := TopDegree(g, 2); !reflect.DeepEqual(top2, want[:2]) {
		t.Fatalf("TopDegree(2) = %v, want %v", top2, want[:2])
	}
}

func TestTopDegreeClamps(t *testing.T) {
	g := degreeFixture(t)
	if got := TopDegree(g, 0); got != nil {
		t.Fatalf("TopDegree(0) = %v, want nil", got)
	}
	if got := TopDegree(g, -3); got != nil {
		t.Fatalf("TopDegree(-3) = %v, want nil", got)
	}
	if got := TopDegree(g, 99); len(got) != g.NumNodes {
		t.Fatalf("TopDegree(99) returned %d nodes, want %d", len(got), g.NumNodes)
	}
}

func TestHubCount(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{0, 0.5, 0},
		{100, 0, 0},
		{100, -1, 0},
		{100, 0.01, 1},
		{100, 0.001, 1}, // non-zero fraction on a non-empty graph selects ≥1
		{100, 0.25, 25},
		{100, 1, 100},
		{100, 7, 100},
	}
	for _, c := range cases {
		if got := HubCount(c.n, c.frac); got != c.want {
			t.Errorf("HubCount(%d, %g) = %d, want %d", c.n, c.frac, got, c.want)
		}
	}
	s := Stats{NumNodes: 2000}
	if got := HubCount(int(s.NumNodes), 0.01); got != 20 {
		t.Errorf("HubCount(Stats.NumNodes, 0.01) = %d, want 20", got)
	}
}
