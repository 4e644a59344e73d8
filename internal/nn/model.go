package nn

import (
	"fmt"
	"math/rand"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// ModelKind selects the GNN architecture.
type ModelKind string

// KindSAGE and KindGCN are the two architectures the paper evaluates;
// KindGIN is a model-zoo extension (Graph Isomorphism Network, GIN-0).
const (
	KindSAGE ModelKind = "sage"
	KindGCN  ModelKind = "gcn"
	KindGIN  ModelKind = "gin"
)

// ModelSpec describes a GNN model instance: architecture and layer
// dimensions. Dims has length L+1: input feature length, hidden widths,
// and the class count (the paper uses [f0, 128, 128, classes]).
type ModelSpec struct {
	Kind ModelKind
	Dims []int
	Seed int64
}

// GNN is a multi-layer GNN model. It holds its parameters' weights,
// which Replica shares, and owns their gradient accumulators, the
// per-batch activation cache (each layer caches its own inputs) and a
// buffer pool recycling every per-batch matrix: each ARGO process
// trains through its own replica, and steady-state batches allocate no
// matrix storage.
type GNN struct {
	Spec   ModelSpec
	Layers []*Layer

	// bufs recycles per-batch matrices across all layers of this
	// replica. Layers built by NewModel share it; callers gathering
	// input features may draw from (and return to) the same pool via
	// Buffers.
	bufs *tensor.BufPool

	// params is every layer's parameters in layer order, collected once
	// in NewModel: Params and ZeroGrad run once per step per replica.
	params []*Param

	// cached between Forward and Backward
	lastBatch *sampler.MiniBatch
}

// NewModel builds a GNN. Models built with equal specs (same seed) have
// bit-identical initial parameters. degrees is required for KindGCN
// (global degree array) and ignored for KindSAGE.
func NewModel(spec ModelSpec, degrees []int) (*GNN, error) {
	if len(spec.Dims) < 2 {
		return nil, fmt.Errorf("nn: model needs at least 2 dims, got %v", spec.Dims)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	m := &GNN{Spec: spec, bufs: tensor.NewBufPool()}
	numLayers := len(spec.Dims) - 1
	for l := 0; l < numLayers; l++ {
		relu := l < numLayers-1
		switch spec.Kind {
		case KindSAGE:
			m.Layers = append(m.Layers, NewSAGELayer(rng, spec.Dims[l], spec.Dims[l+1], relu))
		case KindGCN:
			if degrees == nil {
				return nil, fmt.Errorf("nn: GCN model requires global degrees")
			}
			m.Layers = append(m.Layers, NewGCNLayer(rng, spec.Dims[l], spec.Dims[l+1], relu, degrees))
		case KindGIN:
			m.Layers = append(m.Layers, NewGINLayer(rng, spec.Dims[l], spec.Dims[l+1], relu))
		default:
			return nil, fmt.Errorf("nn: unknown model kind %q", spec.Kind)
		}
	}
	for _, l := range m.Layers {
		l.bufs = m.bufs
		m.params = append(m.params, l.Params()...)
	}
	return m, nil
}

// Replica returns a model that trains on m's weights: its layers point
// at the same Weight.W and Bias.W matrices and the same aggregator, and
// own their gradients, activations and buffer pool. Forward and Backward
// on a replica leave m's gradients and activations untouched, so
// replicas may run concurrently as long as nothing writes the weights.
func (m *GNN) Replica() *GNN {
	r := &GNN{Spec: m.Spec, bufs: tensor.NewBufPool()}
	for _, l := range m.Layers {
		rl := &Layer{
			InDim: l.InDim, OutDim: l.OutDim, Relu: l.Relu, agg: l.agg, bufs: r.bufs,
			Weight: &Param{Name: l.Weight.Name, W: l.Weight.W, Grad: tensor.New(l.Weight.W.Rows, l.Weight.W.Cols)},
			Bias:   &Param{Name: l.Bias.Name, W: l.Bias.W, Grad: tensor.New(l.Bias.W.Rows, l.Bias.W.Cols)},
		}
		r.Layers = append(r.Layers, rl)
		r.params = append(r.params, rl.Params()...)
	}
	return r
}

// NumLayers returns the model depth.
func (m *GNN) NumLayers() int { return len(m.Layers) }

// Buffers returns the replica's shared matrix buffer pool. Callers that
// gather per-batch inputs (feature matrices) can Get
// from and Put back into it to keep the whole step allocation-free; a
// Put matrix must no longer be referenced by the caller.
func (m *GNN) Buffers() *tensor.BufPool { return m.bufs }

// Params returns all trainable parameters in a stable order. The slice
// is the model's own and is shared between calls; callers must not
// modify it.
func (m *GNN) Params() []*Param { return m.params }

// ZeroGrad clears all gradient accumulators.
func (m *GNN) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// layerBlock returns the topology layer li aggregates over: its own
// block, or the one subgraph every layer of a ShaDow batch runs on.
func layerBlock(mb *sampler.MiniBatch, li int) *sampler.Block {
	if mb.Sub != nil {
		return mb.Sub
	}
	return &mb.Blocks[li]
}

// readout returns the target rows of the last layer's output x: all of
// it for a block batch, the first NumTargets rows of a subgraph.
func readout(mb *sampler.MiniBatch, x *tensor.Matrix) *tensor.Matrix {
	if mb.Sub == nil {
		return x
	}
	nt := mb.Sub.NumTargets
	return tensor.FromSlice(nt, x.Cols, x.Data[:nt*x.Cols])
}

// Forward runs the model on a sampled batch. x0 must hold the gathered
// input features for mb.InputNodes() (one row per input node, in order).
// It returns the logits for the batch targets.
func (m *GNN) Forward(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix) *tensor.Matrix {
	m.lastBatch = mb
	if mb.Sub == nil && len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	x := x0
	for li, l := range m.Layers {
		x = l.Forward(pool, layerBlock(mb, li), x)
	}
	return readout(mb, x)
}

// Infer runs each layer's Infer, its Forward without the activation
// cache, so the logits are Forward's to the bit. They draw from the
// model's buffer pool (Put them back via Buffers when done), and a
// Backward after Infer still sees the last Forward's batch.
func (m *GNN) Infer(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix) *tensor.Matrix {
	if mb.Sub == nil && len(mb.Blocks) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	return m.InferReuse(pool, mb, x0, nil)
}

// InferReuse is the activation-reuse variant of Infer: before each
// layer consumes its input, inject(layer, x) may overwrite rows of x
// with externally known activations — precomputed hub embeddings being
// the serving use. Row j of layer li's input corresponds to
// mb.Blocks[li].SrcNodes[j], so an injector that fills every known row
// makes a gather pruned at those nodes (sampler.SamplePruned)
// bit-identical to the unpruned pass: full-neighborhood aggregation
// makes each per-layer, per-node activation a pure function of (model,
// graph, features, node), so a stored value and a recomputed one carry
// the same bits. inject may be nil (plain inference).
//
// A batch gathered with fewer blocks than the model has layers runs
// only that prefix of layers — the hook precompute uses to read
// intermediate activations: an L'-block full gather followed by an
// L'-layer prefix pass yields exactly the targets' layer-L' outputs.
// Subgraph (ShaDow) batches support neither injection nor prefixing.
func (m *GNN) InferReuse(pool *tensor.Pool, mb *sampler.MiniBatch, x0 *tensor.Matrix, inject func(layer int, x *tensor.Matrix)) *tensor.Matrix {
	layers := len(mb.Blocks)
	if mb.Sub != nil {
		if inject != nil {
			panic("nn: InferReuse injection requires a block batch, not a subgraph")
		}
		layers = len(m.Layers)
	} else if layers > len(m.Layers) {
		panic(fmt.Sprintf("nn: %d blocks for %d layers", len(mb.Blocks), len(m.Layers)))
	}
	x := x0
	for li, l := range m.Layers[:layers] {
		if inject != nil {
			inject(li, x)
		}
		next := l.Infer(pool, layerBlock(mb, li), x)
		if x != x0 {
			m.bufs.Put(x)
		}
		x = next
	}
	return readout(mb, x)
}

// Backward propagates dLogits (gradient w.r.t. Forward's return value)
// through the model in reverse layer order, accumulating parameter
// gradients. Every layer but the first produces its input gradient (the
// next layer's dOut), recycled through the model's buffer pool; input
// features are frozen, so the first layer skips its widest product and
// scatter. The result is always nil.
func (m *GNN) Backward(pool *tensor.Pool, dLogits *tensor.Matrix) *tensor.Matrix {
	mb := m.lastBatch
	if mb == nil {
		panic("nn: Backward before Forward")
	}
	grad := dLogits
	if mb.Sub != nil {
		// Expand target-row gradients to the full subgraph width.
		grad = m.bufs.Get(mb.Sub.NumDst, dLogits.Cols)
		copy(grad.Data[:dLogits.Rows*dLogits.Cols], dLogits.Data)
	}
	for li := len(m.Layers) - 1; li >= 0; li-- {
		next := m.Layers[li].Backward(pool, layerBlock(mb, li), grad, li > 0)
		if grad != dLogits {
			m.bufs.Put(grad)
		}
		grad = next
	}
	// Deprecated: the nil result stays only because the repo benchmark's
	// layer replay Puts it back; a change to that benchmark removes it.
	return nil
}

// GatherPooled copies the feature rows of ids from feats into a matrix
// drawn from bufs (nil → plain allocation) — the memory-bound
// index_select the paper's Fig. 2 highlights. Recycling the gathered
// batch back into the same pool after the step makes the steady-state
// input gather allocation-free.
func GatherPooled(bufs *tensor.BufPool, feats *tensor.Matrix, ids []graph.NodeID) *tensor.Matrix {
	out := bufs.GetDirty(len(ids), feats.Cols)
	for i, v := range ids {
		copy(out.Row(i), feats.Row(int(v)))
	}
	return out
}

// Degrees extracts the global degree array a GCN model needs.
func Degrees(g *graph.CSR) []int {
	d := make([]int, g.NumNodes)
	for v := range d {
		d[v] = g.Degree(graph.NodeID(v))
	}
	return d
}
