package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// powerLawGraph builds a skewed test graph: a few hubs carry most of the
// edges, the regime the weighted kernels are built for.
func powerLawGraph(t testing.TB, nodes, edges int) (*graph.CSR, []int32) {
	t.Helper()
	g, labels, err := graph.Generate(graph.GenSpec{
		NumNodes:   nodes,
		NumEdges:   int64(edges),
		NumClasses: 5,
		Exponent:   2.1,
		MinDegree:  1,
		Homophily:  0.5,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

func randFeatures(rows, cols int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestInferMatchesForwardBitwise pins the fused serving path to the
// training forward pass: identical logits, bit for bit, for every model
// kind, both batch layouts (blocks and subgraph), and any worker count.
func TestInferMatchesForwardBitwise(t *testing.T) {
	g, _ := powerLawGraph(t, 300, 2400)
	feats := randFeatures(g.NumNodes, 7, 2)
	targets := []graph.NodeID{0, 5, 17, 42, 99, 250}
	degrees := Degrees(g)
	rng := rand.New(rand.NewSource(9))

	samplers := map[string]sampler.Sampler{
		"neighbor":     sampler.NewNeighbor(g, []int{4, 4}),
		"fullneighbor": sampler.NewFullNeighbor(g, 2),
		"shadow":       sampler.NewShaDow(g, []int{3, 2}, 2),
	}
	for _, kind := range []ModelKind{KindSAGE, KindGCN, KindGIN} {
		m, err := NewModel(ModelSpec{Kind: kind, Dims: []int{7, 6, 5}, Seed: 11}, degrees)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range samplers {
			mb := s.Sample(rng, targets)
			x0 := Gather(feats, mb.InputNodes())
			for _, workers := range []int{1, 3, 8} {
				pool := tensor.NewPool(workers)
				fwd := m.Forward(pool, mb, x0)
				inf := m.Infer(pool, mb, x0)
				if fwd.Rows != inf.Rows || fwd.Cols != inf.Cols {
					t.Fatalf("%s/%s/w%d: shape %dx%d vs %dx%d", kind, name, workers,
						fwd.Rows, fwd.Cols, inf.Rows, inf.Cols)
				}
				for i := range fwd.Data {
					if math.Float32bits(fwd.Data[i]) != math.Float32bits(inf.Data[i]) {
						t.Fatalf("%s/%s/w%d: logit %d differs: %v vs %v",
							kind, name, workers, i, fwd.Data[i], inf.Data[i])
					}
				}
				m.Buffers().Put(inf)
			}
		}
	}
}

// TestForwardWeightedWorkerInvariance pins the weighted-chunk dispatch:
// logits are bit-identical across worker counts on a skewed batch (the
// per-row reduction never crosses a chunk boundary).
func TestForwardWeightedWorkerInvariance(t *testing.T) {
	g, _ := powerLawGraph(t, 400, 4000)
	feats := randFeatures(g.NumNodes, 8, 2)
	targets := make([]graph.NodeID, 50)
	for i := range targets {
		targets[i] = graph.NodeID(i * 7)
	}
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{8, 6, 4}, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn := sampler.NewFullNeighbor(g, 2)
	mb := fn.Sample(nil, targets)
	x0 := Gather(feats, mb.InputNodes())
	ref := m.Forward(tensor.NewPool(1), mb, x0).Clone()
	for _, workers := range []int{2, 4, 8, 13} {
		out := m.Forward(tensor.NewPool(workers), mb, x0)
		for i := range ref.Data {
			if math.Float32bits(ref.Data[i]) != math.Float32bits(out.Data[i]) {
				t.Fatalf("workers=%d: logit %d differs: %v vs %v", workers, i, ref.Data[i], out.Data[i])
			}
		}
	}
}

// TestWeightedChunksBalancePowerLawGraph gates the degree-aware dispatch
// on the aggregation cost (1 + degree) of a whole power-law graph: the
// heaviest of the workers×StealFactor cost-quantile chunks — the critical
// path under work stealing — must be at least 1.5× lighter than the
// heaviest of the workers equal-count chunks, and lighter than the same
// number of equal-count chunks too, so both the oversubscription and the
// cost weighting are load-bearing. Chunk boundaries are a pure function
// of the graph seed, so this holds on a one-core runner where parallel
// wall-clock says nothing (46 294 → 11 388, 4.07×, when written).
func TestWeightedChunksBalancePowerLawGraph(t *testing.T) {
	const workers = 8
	g, _ := powerLawGraph(t, 20000, 200000)
	cost := func(i int) int { return 1 + g.Degree(graph.NodeID(i)) }
	maxRow := 0
	for i := 0; i < g.NumNodes; i++ {
		maxRow = max(maxRow, cost(i))
	}
	maxChunk := func(bounds []int) int {
		worst := 0
		for k := 1; k < len(bounds); k++ {
			sum := 0
			for i := bounds[k-1]; i < bounds[k]; i++ {
				sum += cost(i)
			}
			worst = max(worst, sum)
		}
		return worst
	}
	fixed := maxChunk(tensor.AppendSplitWeighted(nil, g.NumNodes, workers, nil))
	weighted := maxChunk(tensor.AppendSplitWeighted(nil, g.NumNodes, workers*tensor.StealFactor, cost))
	sameCount := maxChunk(tensor.AppendSplitWeighted(nil, g.NumNodes, workers*tensor.StealFactor, nil))
	if weighted < maxRow {
		t.Fatalf("heaviest chunk %d is lighter than the heaviest row %d", weighted, maxRow)
	}
	if gain := float64(fixed) / float64(weighted); gain < 1.5 {
		t.Fatalf("max chunk cost %d fixed → %d weighted: balance gain %.2f < 1.5", fixed, weighted, gain)
	}
	if weighted >= sameCount {
		t.Fatalf("cost-quantile chunks (max %d) no better than %d equal-count chunks (max %d)",
			weighted, workers*tensor.StealFactor, sameCount)
	}
}

// TestGCNOutOfRangeNodeFailsWithClearError: a GCN model built with
// degrees for a smaller graph must fail with a diagnosable message when
// run on a batch referencing nodes beyond the table — not an anonymous
// index-out-of-range deep inside the aggregation kernel.
func TestGCNOutOfRangeNodeFailsWithClearError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewGCNLayer(rng, 2, 2, false, []int{1, 2, 1}) // covers nodes 0..2
	b := &sampler.Block{
		SrcNodes: []graph.NodeID{0, 1, 5}, // node 5 is out of range
		NumDst:   2,
		RowPtr:   []int32{0, 1, 1},
		Col:      []int32{2},
	}
	x := tensor.New(3, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic for an out-of-range global node")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T (%v), want the diagnostic string", r, r)
		}
		for _, want := range []string{"normalisation table covers 3", "node 5", "smaller graph"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	l.Forward(tensor.NewPool(1), b, x)
}

// TestSteadyStateStepIsMatrixAllocationFree drives full training steps
// (gather → forward → loss → backward → recycle) over a fixed batch and
// asserts the steady-state heap traffic is a small constant — interface
// boxing and dispatch closures, not matrices. An unpooled step allocates
// hundreds of KB per batch; the threshold below is two orders of
// magnitude under that.
func TestSteadyStateStepIsMatrixAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items by design, so allocation thresholds do not hold")
	}
	g, labels := powerLawGraph(t, 500, 4000)
	feats := randFeatures(g.NumNodes, 32, 2)
	targets := make([]graph.NodeID, 64)
	for i := range targets {
		targets[i] = graph.NodeID(i * 5)
	}
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{32, 16, 5}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool(1)
	fn := sampler.NewFullNeighbor(g, 2)
	mb := fn.Sample(nil, targets)
	batchLabels := make([]int32, len(targets))
	for i, v := range targets {
		batchLabels[i] = labels[v]
	}
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
	for i := 0; i < 5; i++ {
		step() // warm the pools to the batch's high-water shapes
	}
	runtime.GC()
	var before, after runtime.MemStats
	const measured = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / measured
	// One unpooled x0 alone is 64+ rows of k-hop inputs × 32 cols × 4B
	// ≈ 100KB+; the whole pooled step must stay far under a single
	// matrix.
	if perStep > 16*1024 {
		t.Fatalf("steady-state step allocates %d bytes, want < 16KB (matrices are leaking from the pool)", perStep)
	}
	// ZeroGrad and Params run once per step per replica: the parameter
	// list is built once in NewModel, never per call.
	if n := testing.AllocsPerRun(100, func() {
		m.ZeroGrad()
		if len(m.Params()) != 4 {
			t.Fatal("2-layer SAGE model must expose 4 parameters")
		}
	}); n != 0 {
		t.Fatalf("ZeroGrad+Params allocate %v objects per call, want 0", n)
	}
}
