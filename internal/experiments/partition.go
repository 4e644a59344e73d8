package experiments

import (
	"io"
	"math/rand"
	"time"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/tablefmt"
)

// PartitionRow compares one data-splitting strategy (paper §VII-A).
type PartitionRow struct {
	Strategy  string
	EdgeCut   int64
	Balance   float64
	BuildTime time.Duration
}

// PartitionAblation reproduces the §VII-A discussion: a METIS-style
// balanced partitioner (greedy BFS here) yields a far lower edge cut than
// ARGO's random split, at a partitioning cost that must be re-paid every
// time the auto-tuner changes the process count — which is why ARGO keeps
// the random split.
func PartitionAblation(w io.Writer) ([]PartitionRow, error) {
	ds, err := datasets.Build("ogbn-products", 5)
	if err != nil {
		return nil, err
	}
	const parts = 8
	random, randomTime := timePartition(func() *graph.Partition {
		return graph.RandomPartition(ds.Graph, parts, rand.New(rand.NewSource(1)))
	})
	greedy, greedyTime := timePartition(func() *graph.Partition { return graph.GreedyPartition(ds.Graph, parts) })
	rows := []PartitionRow{
		{Strategy: "random (ARGO default)", EdgeCut: random.EdgeCut(ds.Graph), Balance: random.Balance(ds.Graph), BuildTime: randomTime},
		{Strategy: "greedy BFS (METIS stand-in)", EdgeCut: greedy.EdgeCut(ds.Graph), Balance: greedy.Balance(ds.Graph), BuildTime: greedyTime},
	}

	tb := tablefmt.New("§VII-A data-splitting ablation (ogbn-products scaled, 8 parts)",
		"strategy", "edge cut", "balance", "partition time (best of 3)")
	for _, r := range rows {
		tb.Addf(r.Strategy, r.EdgeCut, r.Balance, r.BuildTime.String())
	}
	_, err = io.WriteString(w, tb.String())
	return rows, err
}

// timePartition builds a partition three times and returns the last build
// with the fastest build's time. The clock covers only the partitioner,
// not the edge-cut and balance evaluation that follows it.
func timePartition(build func() *graph.Partition) (p *graph.Partition, best time.Duration) {
	for i := range 3 {
		start := time.Now()
		p = build()
		if took := time.Since(start); i == 0 || took < best {
			best = took
		}
	}
	return p, best
}
