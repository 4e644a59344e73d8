// Package graph provides the graph substrate for the ARGO reproduction:
// compressed sparse row (CSR) adjacency storage, synthetic power-law
// generators with planted community structure, the dataset registry that
// mirrors the paper's Table III, and graph partitioners for the data
// splitting ablation (paper §VII-A).
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a vertex. 32 bits comfortably covers every dataset the
// reproduction materialises (the full ogbn-papers100M appears only as
// analytic metadata, never as an in-memory graph).
type NodeID = int32

// CSR is a graph in compressed sparse row form. Neighbors of node v are
// Col[RowPtr[v]:RowPtr[v+1]], sorted ascending. The representation is
// directed; undirected graphs store both arc directions (see FromEdges
// with symmetrize=true).
type CSR struct {
	NumNodes int
	RowPtr   []int64
	Col      []NodeID
}

// NumEdges returns the number of stored arcs.
func (g *CSR) NumEdges() int64 { return g.RowPtr[g.NumNodes] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v NodeID) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Neighbors returns the adjacency list of v, aliasing internal storage.
// Callers must not modify the returned slice.
func (g *CSR) Neighbors(v NodeID) []NodeID {
	return g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Edge is a directed arc used by graph builders.
type Edge struct{ Src, Dst NodeID }

// FromEdges builds a CSR graph over numNodes vertices from an edge list.
// Self-loops and duplicate arcs are removed. If symmetrize is true the
// reverse of every arc is inserted as well, producing an undirected graph
// stored in both directions (the form GNN samplers consume).
func FromEdges(numNodes int, edges []Edge, symmetrize bool) (*CSR, error) {
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= numNodes || e.Dst < 0 || int(e.Dst) >= numNodes {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, numNodes)
		}
	}
	arcs := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		arcs = append(arcs, e)
		if symmetrize {
			arcs = append(arcs, Edge{e.Dst, e.Src})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].Src != arcs[j].Src {
			return arcs[i].Src < arcs[j].Src
		}
		return arcs[i].Dst < arcs[j].Dst
	})
	// Dedup in place.
	out := arcs[:0]
	for i, a := range arcs {
		if i > 0 && a == arcs[i-1] {
			continue
		}
		out = append(out, a)
	}
	arcs = out

	g := &CSR{
		NumNodes: numNodes,
		RowPtr:   make([]int64, numNodes+1),
		Col:      make([]NodeID, len(arcs)),
	}
	for _, a := range arcs {
		g.RowPtr[a.Src+1]++
	}
	for v := 0; v < numNodes; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	cursor := make([]int64, numNodes)
	copy(cursor, g.RowPtr[:numNodes])
	for _, a := range arcs {
		g.Col[cursor[a.Src]] = a.Dst
		cursor[a.Src]++
	}
	return g, nil
}

// Validate checks CSR structural invariants: monotone row pointers, sorted
// duplicate-free adjacency, in-range column indices. It is used by tests
// and the generators' self-checks.
func (g *CSR) Validate() error {
	if len(g.RowPtr) != g.NumNodes+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.NumNodes+1)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d", g.RowPtr[0])
	}
	for v := 0; v < g.NumNodes; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
		// Bounds before slicing: Validate runs on untrusted decoded stores,
		// so an out-of-range row pointer must be an error, not a panic.
		if g.RowPtr[v+1] > int64(len(g.Col)) {
			return fmt.Errorf("graph: RowPtr[%d] = %d exceeds len(Col) %d", v+1, g.RowPtr[v+1], len(g.Col))
		}
		adj := g.Neighbors(NodeID(v))
		for i, u := range adj {
			if u < 0 || int(u) >= g.NumNodes {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("graph: node %d adjacency not sorted/unique", v)
			}
		}
	}
	if g.RowPtr[g.NumNodes] != int64(len(g.Col)) {
		return fmt.Errorf("graph: RowPtr end %d != len(Col) %d", g.RowPtr[g.NumNodes], len(g.Col))
	}
	return nil
}

// MaxDegree returns the largest out-degree in the graph.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean out-degree.
func (g *CSR) AvgDegree() float64 {
	if g.NumNodes == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumNodes)
}
