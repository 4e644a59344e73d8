package nn

import (
	"fmt"
	"math"
	"math/rand"

	"argo/internal/sampler"
	"argo/internal/tensor"
)

// Layer is one GNN layer, h' = act(aggregate(h)·W + b): an aggregator —
// the seam between the architectures — builds each destination's dense
// input row from its block neighbourhood, and the dense half (weights,
// bias, activation, their gradients) is common to all of them. Forward
// caches whatever Backward needs, so each layer instance belongs to
// exactly one model replica and processes one batch at a time (matching
// how the training engine drives it); the replicas' layers share the
// weight and bias matrices and own the gradients. A layer's Forward
// output is valid until that layer's next Forward call — with buffer
// pooling the storage is recycled into the next batch.
type Layer struct {
	InDim, OutDim int
	Relu          bool   // skipped on the output layer
	Weight        *Param // aggregated width × OutDim
	Bias          *Param // 1 × OutDim

	agg  aggregator
	bufs *tensor.BufPool // nil → plain allocation

	// cached activations from the last Forward
	in  *tensor.Matrix // numDst × aggregated width
	out *tensor.Matrix // numDst × OutDim (post-activation)
}

// aggregator is what distinguishes one architecture from another. By
// construction a block's destinations are a prefix of its sources, so
// row i of x is destination i's own previous-layer state.
type aggregator interface {
	// check panics with a diagnosable message when the batch cannot be
	// aggregated; it runs once per batch, before any row.
	check(b *sampler.Block)
	// fill assigns every element of row, destination i's dense input.
	fill(row []float32, b *sampler.Block, x *tensor.Matrix, i int)
	// scatter adds the gradient dRow of destination i's dense input
	// into dX, the gradient of x, through fill's arithmetic.
	scatter(dX *tensor.Matrix, b *sampler.Block, dRow []float32, i int)
}

// newLayer builds a layer whose aggregator turns inDim-wide states into
// width-wide dense inputs, with Xavier-initialised weights.
func newLayer(rng *rand.Rand, name string, agg aggregator, inDim, width, outDim int, relu bool) *Layer {
	l := &Layer{
		InDim: inDim, OutDim: outDim, Relu: relu, agg: agg,
		Weight: NewParam(name+".weight", width, outDim),
		Bias:   NewParam(name+".bias", 1, outDim),
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Layer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// blockCost returns the per-destination aggregation cost for weighted
// chunking: 1 (the self term) plus the row's sampled degree. Hub rows
// get proportionally narrower chunks, so a skewed batch no longer
// serialises behind the worker that owns the hub.
func blockCost(b *sampler.Block) func(i int) int {
	return func(i int) int { return 1 + len(b.Neighbors(i)) }
}

// Forward is aggregate then dense, caching both results for Backward.
func (l *Layer) Forward(pool *tensor.Pool, b *sampler.Block, x *tensor.Matrix) *tensor.Matrix {
	// Recycle the previous batch's activations: the layer processes one
	// batch at a time, so by the time Forward runs again the prior
	// output has been consumed.
	l.bufs.Put(l.in)
	l.bufs.Put(l.out)
	l.in = l.aggregate(pool, b, x)
	l.out = l.dense(pool, l.in)
	return l.out
}

// Infer is Forward without the activation cache: the aggregated input
// goes straight back to the pool.
func (l *Layer) Infer(pool *tensor.Pool, b *sampler.Block, x *tensor.Matrix) *tensor.Matrix {
	in := l.aggregate(pool, b, x)
	out := l.dense(pool, in)
	l.bufs.Put(in)
	return out
}

// aggregate fills each destination's dense input row of a pooled matrix.
func (l *Layer) aggregate(pool *tensor.Pool, b *sampler.Block, x *tensor.Matrix) *tensor.Matrix {
	l.agg.check(b)
	in := l.bufs.GetDirty(b.NumDst, l.Weight.W.Rows)
	pool.ParallelWeighted(b.NumDst, blockCost(b), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.agg.fill(in.Row(i), b, x, i)
		}
	})
	return in
}

// dense computes act(in·W + b) into a pooled matrix.
func (l *Layer) dense(pool *tensor.Pool, in *tensor.Matrix) *tensor.Matrix {
	out := l.bufs.GetDirty(in.Rows, l.OutDim)
	tensor.MatMul(pool, out, in, l.Weight.W)
	tensor.AddBias(pool, out, l.Bias.W.Data, l.Relu)
	return out
}

// Backward consumes the gradient w.r.t. the layer output and accumulates
// parameter grads. With wantInput it also returns the gradient w.r.t.
// the layer input; without, it skips that work (the transpose, the
// widest MatMul and the scatter) and returns nil. Parameter grads are
// bit-identical either way.
func (l *Layer) Backward(pool *tensor.Pool, b *sampler.Block, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dIn := l.denseBackward(pool, dOut, wantInput)
	if dIn == nil {
		return nil
	}
	dX := l.bufs.Get(b.NumSrc(), l.InDim)
	// The scatter runs serially because multiple destinations may share
	// a source row.
	for i := 0; i < b.NumDst; i++ {
		l.agg.scatter(dX, b, dIn.Row(i), i)
	}
	l.bufs.Put(dIn)
	return dX
}

// denseBackward is the weight-application half of the backward pass.
// Given dOut (gradient w.r.t. the cached output) it accumulates
// dW = inᵀ·dZ and db = colsum(dZ) into the parameter grads and, only
// when wantInput is set, returns dZ·Wᵀ — the gradient w.r.t. the
// aggregated input, which Backward scatters through the aggregator.
func (l *Layer) denseBackward(pool *tensor.Pool, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dZ, db := dOut, l.bufs.GetDirty(1, l.Bias.W.Cols)
	if l.Relu {
		dZ = l.bufs.GetDirty(dOut.Rows, dOut.Cols)
		defer l.bufs.Put(dZ)
		tensor.ReLUBackward(pool, dZ, dOut, l.out, db.Data)
	} else {
		tensor.ColSum(db.Data, dZ)
	}
	tensor.AddScaled(l.Bias.Grad.Data, db.Data, 1)
	l.bufs.Put(db)
	dW := l.bufs.GetDirty(l.Weight.W.Rows, l.Weight.W.Cols)
	tensor.MatMulAT(pool, dW, l.in, dZ)
	tensor.AddScaled(l.Weight.Grad.Data, dW.Data, 1)
	l.bufs.Put(dW)
	if !wantInput {
		return nil
	}
	wT := l.bufs.GetDirty(l.Weight.W.Cols, l.Weight.W.Rows)
	tensor.Transpose(wT, l.Weight.W)
	dIn := l.bufs.GetDirty(dZ.Rows, l.Weight.W.Rows)
	tensor.MatMul(pool, dIn, dZ, wT)
	l.bufs.Put(wT)
	return dIn
}

// sageAgg is GraphSAGE's aggregator (paper Eq. 2 and 3):
//
//	a_v = h_v ∥ Mean({h_u : u ∈ N(v)})
//	h'_v = ReLU(a_v·W + b)
//
// The concatenated input has width 2·inDim.
type sageAgg struct{}

// NewSAGELayer constructs a GraphSAGE layer.
func NewSAGELayer(rng *rand.Rand, inDim, outDim int, relu bool) *Layer {
	return newLayer(rng, "sage", sageAgg{}, inDim, 2*inDim, outDim, relu)
}

func (sageAgg) check(*sampler.Block) {}

func (sageAgg) fill(row []float32, b *sampler.Block, x *tensor.Matrix, i int) {
	in := x.Cols
	copy(row[:in], x.Row(i))
	// The mean half accumulates from +0 and is scaled afterwards.
	agg := row[in:]
	clear(agg)
	nbrs := b.Neighbors(i)
	if len(nbrs) == 0 {
		return
	}
	tensor.AddRows(agg, x, nbrs, float32(1)/float32(len(nbrs)))
}

// scatter maps the self half straight onto the dst prefix and
// scatter-adds the neighbour half through the mean.
func (sageAgg) scatter(dX *tensor.Matrix, b *sampler.Block, dRow []float32, i int) {
	in, nbrs := dX.Cols, b.Neighbors(i)
	tensor.AddScaled(dX.Row(i), dRow[:in], 1)
	tensor.ScatterRows(dX, nbrs, dRow[in:], float32(1)/float32(len(nbrs))) // no-op on no neighbours
}

// gcnAgg is the graph convolutional aggregator (paper Eq. 1 and 3) with
// the standard self-loop-augmented symmetric normalisation:
//
//	a_v = Σ_{u∈N(v)} h_u / sqrt((D(v)+1)(D(u)+1)) + h_v / (D(v)+1)
//	h'_v = ReLU(a_v·W + b)
//
// D are *global* graph degrees (supplied at construction), matching how
// sampled-GCN implementations normalise: the sampled block is an unbiased
// structural sample but the normalisation constants come from the graph.
type gcnAgg struct {
	invSqrtDeg []float32 // 1/sqrt(D(v)+1) indexed by global node ID
}

// NewGCNLayer constructs a GCN layer. degrees must hold the global degree
// of every node in the training graph.
func NewGCNLayer(rng *rand.Rand, inDim, outDim int, relu bool, degrees []int) *Layer {
	agg := gcnAgg{invSqrtDeg: make([]float32, len(degrees))}
	for v, d := range degrees {
		agg.invSqrtDeg[v] = float32(1 / math.Sqrt(float64(d)+1))
	}
	return newLayer(rng, "gcn", agg, inDim, inDim, outDim, relu)
}

// check validates that every global node id the batch references is
// covered by the normalisation table, so a model built for a smaller
// graph fails with a diagnosable error instead of an index-out-of-range
// panic deep inside the aggregation kernel. The scan is O(numSrc) — the
// same order as the gather that built the batch — and covers the dst
// prefix too.
func (a gcnAgg) check(b *sampler.Block) {
	n := len(a.invSqrtDeg)
	for _, v := range b.SrcNodes {
		if id := int(v); id < 0 || id >= n {
			panic(fmt.Sprintf("nn: GCN normalisation table covers %d global nodes but the batch references node %d; the model was constructed with degrees for a smaller graph than it is being run on", n, id))
		}
	}
}

func (a gcnAgg) fill(row []float32, b *sampler.Block, x *tensor.Matrix, i int) {
	ci := a.invSqrtDeg[b.SrcNodes[i]]
	// Self term: h_v/(D(v)+1) = c_v · c_v · h_v.
	cSelf := ci * ci
	for k, v := range x.Row(i) {
		row[k] = v * cSelf
	}
	for _, j := range b.Neighbors(i) {
		tensor.AddScaled(row, x.Row(int(j)), ci*a.invSqrtDeg[b.SrcNodes[j]])
	}
}

func (a gcnAgg) scatter(dX *tensor.Matrix, b *sampler.Block, dRow []float32, i int) {
	ci := a.invSqrtDeg[b.SrcNodes[i]]
	tensor.AddScaled(dX.Row(i), dRow, ci*ci)
	for _, j := range b.Neighbors(i) {
		tensor.AddScaled(dX.Row(int(j)), dRow, ci*a.invSqrtDeg[b.SrcNodes[j]])
	}
}

// ginAgg is the Graph Isomorphism Network aggregator (Xu et al., GIN-0
// variant), a model-zoo extension beyond the paper's GCN/SAGE pair:
//
//	a_v = (1+ε)·h_v + Σ_{u∈N(v)} h_u
//	h'_v = ReLU(a_v·W + b)
//
// Sum aggregation (no degree normalisation) gives GIN its injectivity;
// epsilon weighs the self contribution (0 in the common GIN-0 setting).
type ginAgg struct{ epsilon float32 }

// NewGINLayer constructs a GIN-0 layer.
func NewGINLayer(rng *rand.Rand, inDim, outDim int, relu bool) *Layer {
	return newLayer(rng, "gin", ginAgg{}, inDim, inDim, outDim, relu)
}

func (ginAgg) check(*sampler.Block) {}

func (a ginAgg) fill(row []float32, b *sampler.Block, x *tensor.Matrix, i int) {
	selfW := 1 + a.epsilon
	for k, v := range x.Row(i) {
		row[k] = v * selfW
	}
	tensor.AddRows(row, x, b.Neighbors(i), 1)
}

func (a ginAgg) scatter(dX *tensor.Matrix, b *sampler.Block, dRow []float32, i int) {
	tensor.AddScaled(dX.Row(i), dRow, 1+a.epsilon)
	tensor.ScatterRows(dX, b.Neighbors(i), dRow, 1)
}
