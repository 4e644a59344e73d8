package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Partition assigns every node to one of k parts. It is the output of the
// data-splitting strategies discussed in paper §VII-A: ARGO's default
// random split versus a METIS-style balanced edge-cut partitioner
// (substituted here by a greedy BFS-grown partitioner).
type Partition struct {
	K      int
	Assign []int32 // len NumNodes, values in [0,K)
}

// RandomPartition splits nodes into k parts uniformly at random — ARGO's
// default strategy, with negligible partitioning cost.
func RandomPartition(g *CSR, k int, rng *rand.Rand) *Partition {
	p := &Partition{K: k, Assign: make([]int32, g.NumNodes)}
	for v := range p.Assign {
		p.Assign[v] = int32(rng.Intn(k))
	}
	return p
}

// GreedyPartition grows k balanced parts by repeated BFS (a cheap
// stand-in for METIS: it trades noticeable partitioning time for a much
// lower edge cut). It is fully deterministic: BFS seeds are taken in
// descending-degree order with ties broken by ascending node id, and the
// BFS itself expands adjacency lists in their stored (sorted) order —
// the same graph always yields the same partition, which is what lets
// shard sets round-trip byte-stably and `argo-data shard` be
// reproducible across runs. (The previous implementation seeded from a
// random permutation, so equal-degree nodes could land in different
// parts run to run.)
func GreedyPartition(g *CSR, k int) *Partition {
	p := &Partition{K: k, Assign: make([]int32, g.NumNodes)}
	for v := range p.Assign {
		p.Assign[v] = -1
	}
	target := (g.NumNodes + k - 1) / k
	order := make([]int, g.NumNodes)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.Degree(NodeID(order[i])), g.Degree(NodeID(order[j]))
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	cursor := 0
	nextSeed := func() NodeID {
		for cursor < len(order) {
			v := NodeID(order[cursor])
			cursor++
			if p.Assign[v] < 0 {
				return v
			}
		}
		return -1
	}
	queue := make([]NodeID, 0, target)
	for part := 0; part < k; part++ {
		size := 0
		queue = queue[:0]
		if s := nextSeed(); s >= 0 {
			p.Assign[s] = int32(part)
			queue = append(queue, s)
			size++
		}
		for size < target && (len(queue) > 0 || cursor < len(order)) {
			if len(queue) == 0 {
				s := nextSeed()
				if s < 0 {
					break
				}
				p.Assign[s] = int32(part)
				queue = append(queue, s)
				size++
				continue
			}
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if size >= target {
					break
				}
				if p.Assign[u] < 0 {
					p.Assign[u] = int32(part)
					queue = append(queue, u)
					size++
				}
			}
		}
	}
	// Any stragglers (disconnected remnants) go to the smallest part.
	sizes := make([]int, k)
	for _, a := range p.Assign {
		if a >= 0 {
			sizes[a]++
		}
	}
	for v := range p.Assign {
		if p.Assign[v] < 0 {
			best := 0
			for i := 1; i < k; i++ {
				if sizes[i] < sizes[best] {
					best = i
				}
			}
			p.Assign[v] = int32(best)
			sizes[best]++
		}
	}
	return p
}

// EdgeCut returns the number of arcs crossing part boundaries.
func (p *Partition) EdgeCut(g *CSR) int64 {
	var cut int64
	for v := 0; v < g.NumNodes; v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			if p.Assign[v] != p.Assign[u] {
				cut++
			}
		}
	}
	return cut
}

// Balance returns max part size divided by ideal part size (1.0 is
// perfectly balanced).
func (p *Partition) Balance(g *CSR) float64 {
	sizes := make([]int, p.K)
	for _, a := range p.Assign {
		sizes[a]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	ideal := float64(g.NumNodes) / float64(p.K)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// Validate checks that every node is assigned to a part in [0, K).
func (p *Partition) Validate() error {
	for v, a := range p.Assign {
		if a < 0 || int(a) >= p.K {
			return fmt.Errorf("graph: node %d assigned to invalid part %d", v, a)
		}
	}
	return nil
}
