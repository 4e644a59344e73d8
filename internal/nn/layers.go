package nn

import (
	"fmt"
	"math"
	"math/rand"

	"argo/internal/tensor"
)

// Layer is one GNN layer: Forward caches whatever Backward needs, so each
// layer instance belongs to exactly one model replica and processes one
// batch at a time (matching how the training engine drives it). A layer's
// Forward output is valid until that layer's next Forward or Infer call —
// with buffer pooling the storage is recycled into the next batch.
type Layer interface {
	Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient w.r.t. the layer output and
	// accumulates parameter grads. With wantInput it also returns the
	// gradient w.r.t. the layer input; without, it skips that work (the
	// widest MatMulBT and the scatter) and returns nil. Parameter grads
	// are bit-identical either way.
	Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix
	// Infer is the fused forward-only path: same bit-exact math as
	// Forward, but it neither caches activations for Backward nor
	// materialises the intermediate aggregation matrix — each row is
	// aggregated into per-worker scratch and multiplied straight into
	// the output tile.
	Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// bufferedLayer is the seam NewModel uses to thread one shared BufPool
// through every layer of a replica.
type bufferedLayer interface {
	setBufPool(bp *tensor.BufPool)
}

// adjCost returns the per-destination aggregation cost for weighted
// chunking: 1 (the self term) plus the row's sampled degree. Hub rows
// get proportionally narrower chunks, so a skewed batch no longer
// serialises behind the worker that owns the hub.
func adjCost(adj Adj) func(i int) int {
	return func(i int) int { return 1 + len(adj.Neighbors(i)) }
}

// reluRowInPlace applies ReLU to one row with the exact comparison
// tensor.ReLU uses (v > 0 keeps v, everything else — including NaN and
// -0 — becomes +0), so fused inference stays bit-identical to Forward.
func reluRowInPlace(row []float32) {
	for j, v := range row {
		if !(v > 0) {
			row[j] = 0
		}
	}
}

// denseRowMulAdd computes out = row·W + bias: MatMul's own row kernel on
// a zeroed row, followed by AddRowVector's bias add — the fused per-row
// equivalent of the unfused MatMul+AddRowVector pair.
func denseRowMulAdd(out, row []float32, w *tensor.Matrix, bias []float32) {
	clear(out)
	tensor.RowMulAdd(out, row, w)
	for j, b := range bias {
		out[j] += b
	}
}

// denseBackward is the weight-application half of every layer's
// backward pass. Given dOut (gradient w.r.t. the layer output out) and
// agg (the aggregated input the forward pass multiplied by W), it
// accumulates dW = aggᵀ·dZ and db = colsum(dZ) into the parameter grads
// and, only when wantInput is set, returns dZ·Wᵀ — the gradient w.r.t.
// agg, which the layer then scatters back through its aggregation.
func denseBackward(pool *tensor.Pool, bufs *tensor.BufPool, weight, bias *Param, relu bool, out, agg, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dZ := dOut
	if relu {
		dZ = bufs.Get(dOut.Rows, dOut.Cols)
		defer bufs.Put(dZ)
		tensor.ReLUBackward(dZ, dOut, out)
	}
	dW := bufs.Get(weight.W.Rows, weight.W.Cols)
	tensor.MatMulAT(pool, dW, agg, dZ)
	tensor.Add(weight.Grad, dW)
	bufs.Put(dW)
	db := bufs.Get(1, bias.W.Cols)
	tensor.ColSum(db.Data, dZ)
	tensor.Add(bias.Grad, db)
	bufs.Put(db)
	if !wantInput {
		return nil
	}
	dAgg := bufs.Get(dZ.Rows, weight.W.Rows)
	tensor.MatMulBT(pool, dAgg, dZ, weight.W)
	return dAgg
}

// SAGELayer implements GraphSAGE (paper Eq. 2 and 3):
//
//	a_v = h_v ∥ Mean({h_u : u ∈ N(v)})
//	h'_v = ReLU(a_v·W + b)
//
// The concatenated input has width 2·inDim. ReLU is skipped on the output
// layer (Relu=false).
type SAGELayer struct {
	InDim, OutDim int
	Relu          bool
	Weight        *Param // 2·InDim × OutDim
	Bias          *Param // 1 × OutDim

	bufs *tensor.BufPool // nil → plain allocation

	// cached activations from the last Forward
	concat *tensor.Matrix // numDst × 2·InDim
	out    *tensor.Matrix // numDst × OutDim (post-activation)
}

// NewSAGELayer constructs a GraphSAGE layer with Xavier-initialised
// weights.
func NewSAGELayer(rng *rand.Rand, inDim, outDim int, relu bool) *SAGELayer {
	l := &SAGELayer{
		InDim: inDim, OutDim: outDim, Relu: relu,
		Weight: NewParam("sage.weight", 2*inDim, outDim),
		Bias:   NewParam("sage.bias", 1, outDim),
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params implements Layer.
func (l *SAGELayer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *SAGELayer) setBufPool(bp *tensor.BufPool) { l.bufs = bp }

// aggConcatRow fills row (width 2·InDim, zeroed) with destination i's
// concatenated self state and mean-aggregated neighbourhood.
func (l *SAGELayer) aggConcatRow(row []float32, adj Adj, x *tensor.Matrix, i int) {
	in := l.InDim
	// Self half: destination's own previous-layer state (dst is a
	// prefix of src, so row i of x is destination i).
	copy(row[:in], x.Row(i))
	// Neighbour half: mean aggregation.
	nbrs := adj.Neighbors(i)
	if len(nbrs) == 0 {
		return
	}
	agg := row[in:]
	tensor.AddRows(agg, x, nbrs)
	invDeg := float32(1) / float32(len(nbrs))
	for k := range agg {
		agg[k] *= invDeg
	}
}

// Forward implements Layer.
func (l *SAGELayer) Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	numDst := adj.NumDst()
	// Recycle the previous batch's activations: the layer processes one
	// batch at a time, so by the time Forward runs again the prior
	// output has been consumed.
	l.bufs.Put(l.concat)
	l.bufs.Put(l.out)
	l.concat = l.bufs.Get(numDst, 2*l.InDim)
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.aggConcatRow(l.concat.Row(i), adj, x, i)
		}
	})
	l.out = l.bufs.Get(numDst, l.OutDim)
	tensor.MatMul(pool, l.out, l.concat, l.Weight.W)
	tensor.AddRowVector(l.out, l.Bias.W.Data)
	if l.Relu {
		tensor.ReLU(l.out, l.out)
	}
	return l.out
}

// Infer implements Layer: fused aggregate→matmul with per-worker scratch
// instead of a materialised numDst×2·InDim concat matrix.
func (l *SAGELayer) Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	numDst := adj.NumDst()
	out := l.bufs.Get(numDst, l.OutDim)
	w, bias := l.Weight.W, l.Bias.W.Data
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		scratch := l.bufs.Get(1, 2*l.InDim)
		row := scratch.Data
		for i := lo; i < hi; i++ {
			for k := range row {
				row[k] = 0
			}
			l.aggConcatRow(row, adj, x, i)
			dr := out.Row(i)
			denseRowMulAdd(dr, row, w, bias)
			if l.Relu {
				reluRowInPlace(dr)
			}
		}
		l.bufs.Put(scratch)
	})
	return out
}

// Backward implements Layer.
func (l *SAGELayer) Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dConcat := denseBackward(pool, l.bufs, l.Weight, l.Bias, l.Relu, l.out, l.concat, dOut, wantInput)
	if dConcat == nil {
		return nil
	}
	numDst := adj.NumDst()
	dX := l.bufs.Get(adj.NumSrc(), l.InDim)
	in := l.InDim
	// Self half maps straight onto the dst prefix; the neighbour half
	// scatter-adds through the mean. The scatter runs serially because
	// multiple destinations may share a source row.
	for i := 0; i < numDst; i++ {
		dRow := dConcat.Row(i)
		self := dX.Row(i)
		for k := 0; k < in; k++ {
			self[k] += dRow[k]
		}
		nbrs := adj.Neighbors(i)
		if len(nbrs) == 0 {
			continue
		}
		invDeg := float32(1) / float32(len(nbrs))
		dAgg := dRow[in:]
		for _, j := range nbrs {
			dst := dX.Row(int(j))
			for k, v := range dAgg {
				dst[k] += v * invDeg
			}
		}
	}
	l.bufs.Put(dConcat)
	return dX
}

// GCNLayer implements the graph convolutional layer (paper Eq. 1 and 3)
// with the standard self-loop-augmented symmetric normalisation:
//
//	a_v = Σ_{u∈N(v)} h_u / sqrt((D(v)+1)(D(u)+1)) + h_v / (D(v)+1)
//	h'_v = ReLU(a_v·W + b)
//
// D are *global* graph degrees (supplied at construction), matching how
// sampled-GCN implementations normalise: the sampled block is an unbiased
// structural sample but the normalisation constants come from the graph.
type GCNLayer struct {
	InDim, OutDim int
	Relu          bool
	Weight        *Param
	Bias          *Param
	InvSqrtDeg    []float32 // 1/sqrt(D(v)+1) indexed by global node ID

	bufs *tensor.BufPool

	agg *tensor.Matrix
	out *tensor.Matrix
}

// NewGCNLayer constructs a GCN layer. degrees must hold the global degree
// of every node in the training graph.
func NewGCNLayer(rng *rand.Rand, inDim, outDim int, relu bool, degrees []int) *GCNLayer {
	l := &GCNLayer{
		InDim: inDim, OutDim: outDim, Relu: relu,
		Weight:     NewParam("gcn.weight", inDim, outDim),
		Bias:       NewParam("gcn.bias", 1, outDim),
		InvSqrtDeg: make([]float32, len(degrees)),
	}
	for v, d := range degrees {
		l.InvSqrtDeg[v] = float32(1 / math.Sqrt(float64(d)+1))
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params implements Layer.
func (l *GCNLayer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *GCNLayer) setBufPool(bp *tensor.BufPool) { l.bufs = bp }

// checkAdj validates that every global node id the batch references is
// covered by the normalisation table, so a model built for a smaller
// graph fails with a diagnosable error instead of an index-out-of-range
// panic deep inside the aggregation kernel. The scan is O(numSrc) — the
// same order as the gather that built the batch — and covers the dst
// prefix too (destinations are a prefix of the sources by the Adj
// contract).
func (l *GCNLayer) checkAdj(adj Adj) {
	n := len(l.InvSqrtDeg)
	for j, numSrc := 0, adj.NumSrc(); j < numSrc; j++ {
		if id := int(adj.SrcGlobal(j)); id < 0 || id >= n {
			panic(fmt.Sprintf("nn: GCN normalisation table covers %d global nodes but the batch references node %d; the model was constructed with degrees for a smaller graph than it is being run on", n, id))
		}
	}
}

// aggRow fills row (width InDim, zeroed) with destination i's normalised
// self + neighbour sum.
func (l *GCNLayer) aggRow(row []float32, adj Adj, x *tensor.Matrix, i int) {
	ci := l.InvSqrtDeg[adj.DstGlobal(i)]
	// Self term: h_v/(D(v)+1) = c_v · c_v · h_v.
	self := x.Row(i)
	cSelf := ci * ci
	for k, v := range self {
		row[k] = v * cSelf
	}
	for _, j := range adj.Neighbors(i) {
		c := ci * l.InvSqrtDeg[adj.SrcGlobal(int(j))]
		src := x.Row(int(j))
		for k, v := range src {
			row[k] += v * c
		}
	}
}

// Forward implements Layer.
func (l *GCNLayer) Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	l.checkAdj(adj)
	numDst := adj.NumDst()
	l.bufs.Put(l.agg)
	l.bufs.Put(l.out)
	l.agg = l.bufs.Get(numDst, l.InDim)
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.aggRow(l.agg.Row(i), adj, x, i)
		}
	})
	l.out = l.bufs.Get(numDst, l.OutDim)
	tensor.MatMul(pool, l.out, l.agg, l.Weight.W)
	tensor.AddRowVector(l.out, l.Bias.W.Data)
	if l.Relu {
		tensor.ReLU(l.out, l.out)
	}
	return l.out
}

// Infer implements Layer (fused, forward-only; see SAGELayer.Infer).
func (l *GCNLayer) Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
	l.checkAdj(adj)
	numDst := adj.NumDst()
	out := l.bufs.Get(numDst, l.OutDim)
	w, bias := l.Weight.W, l.Bias.W.Data
	pool.ParallelWeighted(numDst, adjCost(adj), func(lo, hi int) {
		scratch := l.bufs.Get(1, l.InDim)
		row := scratch.Data
		for i := lo; i < hi; i++ {
			l.aggRow(row, adj, x, i)
			dr := out.Row(i)
			denseRowMulAdd(dr, row, w, bias)
			if l.Relu {
				reluRowInPlace(dr)
			}
		}
		l.bufs.Put(scratch)
	})
	return out
}

// Backward implements Layer.
func (l *GCNLayer) Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dAgg := denseBackward(pool, l.bufs, l.Weight, l.Bias, l.Relu, l.out, l.agg, dOut, wantInput)
	if dAgg == nil {
		return nil
	}
	numDst := adj.NumDst()
	dX := l.bufs.Get(adj.NumSrc(), l.InDim)
	for i := 0; i < numDst; i++ {
		ci := l.InvSqrtDeg[adj.DstGlobal(i)]
		dRow := dAgg.Row(i)
		self := dX.Row(i)
		cSelf := ci * ci
		for k, v := range dRow {
			self[k] += v * cSelf
		}
		for _, j := range adj.Neighbors(i) {
			c := ci * l.InvSqrtDeg[adj.SrcGlobal(int(j))]
			dst := dX.Row(int(j))
			for k, v := range dRow {
				dst[k] += v * c
			}
		}
	}
	l.bufs.Put(dAgg)
	return dX
}
