package graph

import "sort"

// TopDegree returns the k highest-out-degree nodes of g as a
// degree-ranked list: degree descending, ascending node id on ties, so
// the ranking is a pure function of the topology. It is the selection
// behind the serving layer's hub set — the rows a two-tier cache pins
// and the nodes whose activations are precomputed — and complements the
// degree histogram the store's Stats section carries: the histogram
// sizes the hub set without touching topology bytes, TopDegree names
// its members once the CSR is open. k is clamped to [0, NumNodes].
func TopDegree(g *CSR, k int) []NodeID {
	if k <= 0 || g.NumNodes == 0 {
		return nil
	}
	if k > g.NumNodes {
		k = g.NumNodes
	}
	ids := make([]NodeID, g.NumNodes)
	for v := range ids {
		ids[v] = NodeID(v)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids[:k:k]
}

// HubCount converts a top-degree fraction into a node count: the number
// of nodes in the top frac of n, at least 1 when frac > 0 and n > 0 (a
// non-empty hub request on a non-empty graph always selects something).
// Out-of-range fractions clamp to [0, 1].
func HubCount(n int, frac float64) int {
	if n <= 0 || frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
