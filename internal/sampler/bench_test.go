package sampler

import (
	"math/rand"
	"testing"

	"argo/internal/graph"
)

func benchGraph(b *testing.B) *graph.CSR {
	b.Helper()
	g, _, err := graph.Generate(graph.GenSpec{
		NumNodes: 4000, NumEdges: 100_000, NumClasses: 8,
		Homophily: 0.6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkNeighborSample(b *testing.B) {
	g := benchGraph(b)
	ns := NewNeighbor(g, []int{15, 10, 5})
	rng := rand.New(rand.NewSource(2))
	targets := someTargets(g, 128, rng)
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		mb := ns.Sample(rng, targets)
		edges = mb.Stats.SampledEdges
	}
	b.ReportMetric(float64(edges), "edges/batch")
}

// BenchmarkPartitionSample is BenchmarkNeighborSample with a quarter of
// the graph outside the allowed set: the filtered draw.
func BenchmarkPartitionSample(b *testing.B) {
	g := benchGraph(b)
	var allowed []graph.NodeID
	for v := 0; v < g.NumNodes; v++ {
		if v%4 != 3 {
			allowed = append(allowed, graph.NodeID(v))
		}
	}
	ps := NewPartition(g, []int{15, 10, 5}, allowed)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps.Sample(rng, allowed[:128])
	}
}

func BenchmarkShaDowSample(b *testing.B) {
	g := benchGraph(b)
	sh := NewShaDow(g, []int{10, 5}, 3)
	rng := rand.New(rand.NewSource(3))
	targets := someTargets(g, 64, rng)
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		mb := sh.Sample(rng, targets)
		nodes = mb.Stats.InputNodes
	}
	b.ReportMetric(float64(nodes), "subgraph_nodes")
}
