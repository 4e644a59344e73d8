package nn

import (
	"math/rand"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// benchBatch builds the benchmark workload: a full-neighbor batch over a
// power-law graph, so per-row aggregation cost is heavily skewed (hubs)
// — the regime the weighted chunking targets.
func benchBatch(b *testing.B, layers int) (*sampler.MiniBatch, *tensor.Matrix) {
	b.Helper()
	g, _ := powerLawGraph(b, 20000, 200000)
	targets := make([]graph.NodeID, 1024)
	for i := range targets {
		targets[i] = graph.NodeID(i * 3)
	}
	mb := sampler.NewFullNeighbor(g, layers).Sample(nil, targets)
	x0 := randFeatures(len(mb.InputNodes()), 64, 7)
	return mb, x0
}

// benchAggregate measures just the skew-sensitive stage: the SAGE
// concat-mean aggregation over a power-law block, dispatched either with
// fixed equal-count chunks (the old ParallelRange) or cost-weighted
// work-stealing chunks (ParallelWeighted). At 1 worker the two are
// identical; at 8 the fixed split serialises behind whichever chunk got
// the hubs.
func benchAggregate(b *testing.B, workers int, weighted bool) {
	mb, x0 := benchBatch(b, 1)
	adj := &mb.Blocks[0]
	numDst := adj.NumDst
	l := NewSAGELayer(rand.New(rand.NewSource(1)), 64, 32, true)
	concat := tensor.New(numDst, 2*l.InDim)
	pool := tensor.NewPool(workers)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.agg.fill(concat.Row(i), adj, x0, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if weighted {
			pool.ParallelWeighted(numDst, blockCost(adj), body)
		} else {
			pool.ParallelRange(numDst, body)
		}
	}
}

func BenchmarkAggregatePowerLawFixed1(b *testing.B)    { benchAggregate(b, 1, false) }
func BenchmarkAggregatePowerLawWeighted1(b *testing.B) { benchAggregate(b, 1, true) }
func BenchmarkAggregatePowerLawFixed8(b *testing.B)    { benchAggregate(b, 8, false) }
func BenchmarkAggregatePowerLawWeighted8(b *testing.B) { benchAggregate(b, 8, true) }

// benchForward measures a full 2-layer model forward pass in steady
// state: pooled buffers, weighted dispatch. allocs/op is the pooling
// gate — per-batch matrix storage must come from the pool, so the
// reported count stays a small constant (dispatch closures), not O(batch).
func benchForward(b *testing.B, kind ModelKind, workers int) {
	mb, x0 := benchBatch(b, 2)
	var degrees []int
	if kind == KindGCN {
		degrees = make([]int, 20000)
		for i := range degrees {
			degrees[i] = i % 50
		}
	}
	m, err := NewModel(ModelSpec{Kind: kind, Dims: []int{64, 32, 8}, Seed: 1}, degrees)
	if err != nil {
		b.Fatal(err)
	}
	pool := tensor.NewPool(workers)
	m.Forward(pool, mb, x0) // warm the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Forward(pool, mb, x0)
	}
}

func BenchmarkSAGEForwardPooled1(b *testing.B) { benchForward(b, KindSAGE, 1) }
func BenchmarkSAGEForwardPooled8(b *testing.B) { benchForward(b, KindSAGE, 8) }
func BenchmarkGCNForwardPooled8(b *testing.B)  { benchForward(b, KindGCN, 8) }

// BenchmarkSAGEInferFused measures the serving path: fused
// gather+aggregate+matmul per row, no intermediate concat matrix.
func BenchmarkSAGEInferFused8(b *testing.B) {
	mb, x0 := benchBatch(b, 2)
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{64, 32, 8}, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	pool := tensor.NewPool(8)
	m.Buffers().Put(m.Infer(pool, mb, x0)) // warm the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Buffers().Put(m.Infer(pool, mb, x0))
	}
}

// BenchmarkTrainStepPooled1 is the end-to-end steady-state gate: gather,
// forward, loss, backward, recycle — allocs/op must stay a small
// constant.
func BenchmarkTrainStepPooled1(b *testing.B) {
	g, labels := powerLawGraph(b, 20000, 200000)
	feats := randFeatures(g.NumNodes, 64, 7)
	targets := make([]graph.NodeID, 1024)
	batchLabels := make([]int32, len(targets))
	for i := range targets {
		targets[i] = graph.NodeID(i * 3)
		batchLabels[i] = labels[targets[i]]
	}
	mb := sampler.NewFullNeighbor(g, 2).Sample(nil, targets)
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{64, 32, 8}, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	pool := tensor.NewPool(1)
	bufs := m.Buffers()
	step := func() {
		x0 := GatherPooled(bufs, feats, mb.InputNodes())
		logits := m.Forward(pool, mb, x0)
		_, dLogits := SoftmaxCrossEntropyPooled(bufs, logits, batchLabels)
		m.Backward(pool, dLogits)
		bufs.Put(dLogits)
		bufs.Put(x0)
		m.ZeroGrad()
	}
	step() // warm the buffer pool
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		step()
	}
}
