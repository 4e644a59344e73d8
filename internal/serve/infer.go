package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// FeatureSource serves single feature rows by global node id — the
// row-granular seam the serving path reads through, so a store much
// larger than RAM can back an inference server. Implementations must be
// safe for concurrent use.
type FeatureSource interface {
	// Row copies node id's feature row into dst (grown as needed) and
	// returns it.
	Row(id graph.NodeID, dst []float32) ([]float32, error)
	// Dim returns the feature width.
	Dim() int
}

// lazySource reads rows straight from a LazyDataset section
// (mmap slice or pread per row; never the whole matrix).
type lazySource struct{ lz *graph.LazyDataset }

func (s lazySource) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	return s.lz.FeatureRow(int(id), dst)
}

func (s lazySource) Dim() int { return s.lz.FeatureDim() }

// FeatDtype reports the store's feature dtype (see FeatureSourceDtype);
// an fp16 store gets packed cache storage for ~2× rows per byte budget.
func (s lazySource) FeatDtype() graph.FeatDtype { return s.lz.FeatDtype() }

// NewLazyFeatureSource serves rows from an opened store.
func NewLazyFeatureSource(lz *graph.LazyDataset) FeatureSource { return lazySource{lz} }

// matrixSource serves rows from a materialised feature matrix — the
// reference path the bit-match gates compare against, and the fast path
// for stores small enough to hold in memory.
type matrixSource struct{ m *tensor.Matrix }

// NewMatrixFeatureSource serves rows from an in-memory matrix.
func NewMatrixFeatureSource(m *tensor.Matrix) FeatureSource { return matrixSource{m} }

func (s matrixSource) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	if id < 0 || int(id) >= s.m.Rows {
		return nil, fmt.Errorf("serve: feature row %d outside [0,%d)", id, s.m.Rows)
	}
	return append(dst[:0], s.m.Row(int(id))...), nil
}

func (s matrixSource) Dim() int { return s.m.Cols }

// Prediction is one node's answer: the argmax label plus the raw logits
// (so callers can threshold or rank themselves).
type Prediction struct {
	Node   graph.NodeID `json:"node"`
	Label  int          `json:"label"`
	Logits []float32    `json:"logits"`
}

// Inferencer answers node-classification queries: a deterministic
// full-neighborhood k-hop gather feeding one forward pass of the
// checkpointed model. Feature rows come from the FeatureSource through
// the optional hot-node cache. Predict calls are serialised internally
// (the model caches per-batch activations), which is exactly how the
// micro-batcher drives it — one coalesced batch at a time.
type Inferencer struct {
	mu     sync.Mutex
	model  *nn.GNN
	graph  *graph.CSR
	gather *sampler.FullNeighbor
	feats  FeatureSource
	cache  *rowCache // zero-budget when caching is off
	hubs   *HubStore
	pool   *tensor.Pool

	hubHits atomic.Int64
}

// newInferencer validates the pieces and builds an inferencer. A nil
// cache is a zero-budget one, which reads every row from feats. workers
// bounds the tensor worker pool; per-row kernel results are
// worker-count-independent, so it is performance-only.
func newInferencer(model *nn.GNN, g *graph.CSR, feats FeatureSource, cache *rowCache, workers int) (*Inferencer, error) {
	if model == nil || g == nil || feats == nil {
		return nil, fmt.Errorf("serve: model, graph, and features are required")
	}
	if feats.Dim() != model.Spec.Dims[0] {
		return nil, fmt.Errorf("serve: feature dim %d, model expects %d", feats.Dim(), model.Spec.Dims[0])
	}
	if cache == nil { // no slots: every row misses and no Put keeps one
		cache = &rowCache{policy: PolicyLRU, links: []link{{}}}
	}
	return &Inferencer{
		model:  model,
		graph:  g,
		gather: sampler.NewFullNeighbor(g, model.NumLayers()),
		feats:  feats,
		cache:  cache,
		pool:   tensor.NewPool(max(workers, 1)),
	}, nil
}

// NumNodes returns the served graph's node count (for request
// validation).
func (inf *Inferencer) NumNodes() int { return inf.graph.NumNodes }

// NumClasses returns the model's output width.
func (inf *Inferencer) NumClasses() int { return inf.model.Spec.Dims[len(inf.model.Spec.Dims)-1] }

// checkNodes rejects node ids outside the served graph, so no caller's
// input reaches the gather unvalidated.
func (inf *Inferencer) checkNodes(nodes []graph.NodeID) error {
	n := inf.graph.NumNodes
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: node %d outside [0,%d)", ErrBadRequest, v, n)
		}
	}
	return nil
}

// Predict runs one forward pass for the given nodes (which must be
// unique; an id out of range is an ErrBadRequest) and returns one
// prediction per node, in order.
// Logits are a pure function of (model, graph, features, node): batch
// composition cannot change them — and neither can hub serving: with a
// HubStore attached the gather is pruned at hubs and their stored
// per-layer activations are injected back (or, for hub targets, the
// stored logits returned outright), bit-identical to the full pass.
func (inf *Inferencer) Predict(nodes []graph.NodeID) ([]Prediction, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	if err := inf.checkNodes(nodes); err != nil {
		return nil, err
	}
	inf.mu.Lock()
	defer inf.mu.Unlock()
	var known func(graph.NodeID) bool
	if inf.hubs != nil {
		known = inf.hubs.Contains
	}
	mb := inf.gather.SamplePruned(nodes, known)
	x0, err := inf.gatherFeatures(mb.InputNodes())
	if err != nil {
		return nil, err
	}
	var inject func(int, *tensor.Matrix)
	if inf.hubs != nil {
		inject = func(li int, x *tensor.Matrix) {
			if li == 0 {
				// Layer-0 inputs are raw feature rows; the gather
				// already supplied hub rows exactly.
				return
			}
			for j, v := range mb.Blocks[li].SrcNodes {
				if a, ok := inf.hubs.Activation(li, v); ok {
					copy(x.Row(j), a)
				}
			}
		}
	}
	// The forward-only pass: Forward's logits to the bit, with every
	// per-batch matrix recycled through the model's pool, so a
	// steady-state Predict allocates only the returned predictions.
	logits := inf.model.InferReuse(inf.pool, mb, x0, inject)
	preds := make([]Prediction, len(nodes))
	for i, v := range nodes {
		row := logits.Row(i)
		if hl, ok := inf.hubs.Logits(v); ok {
			// Hub target: its pruned row holds garbage (its frontier was
			// never gathered); the stored logits are the exact answer.
			row = hl
			inf.hubHits.Add(1)
		}
		preds[i] = Prediction{Node: v, Label: argmax(row), Logits: append([]float32(nil), row...)}
	}
	bufs := inf.model.Buffers()
	bufs.Put(logits)
	bufs.Put(x0)
	return preds, nil
}

// gatherFeatures assembles the layer-0 input matrix through the cache
// in one locked pass: a hit is copied into its row of the matrix and a
// miss is read by the FeatureSource straight into it, so every row is
// written and the matrix needs no zero fill. The matrix draws from the
// model's buffer pool; Predict returns it once the pass completes.
func (inf *Inferencer) gatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	x0 := inf.model.Buffers().GetDirty(len(ids), inf.feats.Dim())
	err := inf.cache.fill(ids, x0.Row, func(v graph.NodeID, dst []float32) error {
		row, err := inf.feats.Row(v, dst)
		if err == nil && len(row) != len(dst) {
			err = fmt.Errorf("serve: feature source returned %d values for node %d, want %d", len(row), v, len(dst))
		}
		if err == nil && len(row) > 0 && &row[0] != &dst[0] {
			copy(dst, row) // the source answered from its own storage
		}
		return err
	})
	if err != nil {
		inf.model.Buffers().Put(x0)
		return nil, err
	}
	return x0, nil
}

// CacheStats reports the hot-node cache counters (zero value when no
// cache budget is configured).
func (inf *Inferencer) CacheStats() CacheStats {
	if inf.cache.capBytes <= 0 {
		return CacheStats{}
	}
	return inf.cache.Stats()
}

// argmax returns the index of the row's maximum (first on ties, so the
// label is deterministic).
func argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// DirectPredict is the reference path the serving stack is pinned
// against: a single-batch forward pass on a fully materialised dataset,
// no cache, no batcher, no row-granular reads. CI asserts a served
// prediction bit-matches this for the same checkpoint and store.
func DirectPredict(m *nn.GNN, ds *graph.Dataset, nodes []graph.NodeID, workers int) ([]Prediction, error) {
	inf, err := newInferencer(m, ds.Graph, NewMatrixFeatureSource(ds.Features), nil, workers)
	if err != nil {
		return nil, err
	}
	return inf.Predict(nodes)
}
