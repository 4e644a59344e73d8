package nn

import (
	"math/rand"

	"argo/internal/tensor"
)

// GINLayer implements the Graph Isomorphism Network layer (Xu et al.,
// GIN-0 variant) as a model-zoo extension beyond the paper's GCN/SAGE
// pair:
//
//	a_v = (1+ε)·h_v + Σ_{u∈N(v)} h_u
//	h'_v = ReLU(a_v·W + b)
//
// Sum aggregation (no degree normalisation) gives GIN its injectivity;
// Epsilon weighs the self contribution (0 in the common GIN-0 setting).
type GINLayer struct {
	InDim, OutDim int
	Relu          bool
	Epsilon       float32
	Weight        *Param
	Bias          *Param

	bufs *tensor.BufPool

	agg *tensor.Matrix
	out *tensor.Matrix
}

// NewGINLayer constructs a GIN-0 layer with Xavier-initialised weights.
func NewGINLayer(rng *rand.Rand, inDim, outDim int, relu bool) *GINLayer {
	l := &GINLayer{
		InDim: inDim, OutDim: outDim, Relu: relu,
		Weight: NewParam("gin.weight", inDim, outDim),
		Bias:   NewParam("gin.bias", 1, outDim),
	}
	XavierUniform(rng, l.Weight)
	return l
}

// Params implements Layer.
func (l *GINLayer) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *GINLayer) setBufPool(bp *tensor.BufPool) { l.bufs = bp }

// aggRow fills row (width InDim) with destination i's weighted self state
// plus neighbour sum. Every element is assigned before accumulation, so
// the scratch row does not need pre-zeroing.
func (l *GINLayer) aggRow(row []float32, adj Adj, x *tensor.Matrix, i int) {
	selfW := 1 + l.Epsilon
	self := x.Row(i)
	for k, v := range self {
		row[k] = v * selfW
	}
	tensor.AddRows(row, x, adj.Neighbors(i))
}

// Forward implements Layer.
func (l *GINLayer) Forward(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
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
func (l *GINLayer) Infer(pool *tensor.Pool, adj Adj, x *tensor.Matrix) *tensor.Matrix {
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
func (l *GINLayer) Backward(pool *tensor.Pool, adj Adj, dOut *tensor.Matrix, wantInput bool) *tensor.Matrix {
	dAgg := denseBackward(pool, l.bufs, l.Weight, l.Bias, l.Relu, l.out, l.agg, dOut, wantInput)
	if dAgg == nil {
		return nil
	}
	numDst := adj.NumDst()
	dX := l.bufs.Get(adj.NumSrc(), l.InDim)
	selfW := 1 + l.Epsilon
	for i := 0; i < numDst; i++ {
		dRow := dAgg.Row(i)
		self := dX.Row(i)
		for k, v := range dRow {
			self[k] += v * selfW
		}
		for _, j := range adj.Neighbors(i) {
			dst := dX.Row(int(j))
			for k, v := range dRow {
				dst[k] += v
			}
		}
	}
	l.bufs.Put(dAgg)
	return dX
}
