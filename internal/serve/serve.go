package serve

import (
	"fmt"
	"time"

	"argo/internal/graph"
	"argo/internal/nn"
)

// Source bundles what a server serves from: the topology the gather
// walks and the feature rows it reads. The two must describe the same
// store (same node universe, feature dim matching the model).
type Source struct {
	Graph    *graph.CSR
	Features FeatureSource
}

// Option configures New.
type Option func(*serverConfig)

type serverConfig struct {
	cache      Cache
	policy     string
	cacheBytes int64
	tailPolicy string
	hubPin     float64
	precompute float64
	batch      BatcherConfig
}

// WithCache installs a pre-built cache instance, overriding WithPolicy,
// WithCacheBytes, and WithHubPin. The server takes ownership (Close
// closes it).
func WithCache(c Cache) Option { return func(cfg *serverConfig) { cfg.cache = c } }

// WithPolicy selects the cache replacement policy by registry name
// (default lru; see Policies for the built-ins).
func WithPolicy(name string) Option { return func(cfg *serverConfig) { cfg.policy = name } }

// WithCacheBytes sets the cache byte budget. 0 (the default) disables
// row caching entirely.
func WithCacheBytes(n int64) Option { return func(cfg *serverConfig) { cfg.cacheBytes = n } }

// WithTailPolicy selects the policy managing the twotier cache's
// unpinned tail (default tinylfu). Ignored by single-tier policies.
func WithTailPolicy(name string) Option { return func(cfg *serverConfig) { cfg.tailPolicy = name } }

// WithHubPin pins the top frac (0..1] of nodes by degree into the
// cache's pinned tier. Only the twotier policy has one; other policies
// ignore the pin set.
func WithHubPin(frac float64) Option { return func(cfg *serverConfig) { cfg.hubPin = frac } }

// WithPrecomputeHubs precomputes per-layer activations for the top frac
// (0..1] of nodes by degree at construction time, so hub frontiers are
// pruned from every gather and hub targets answer from stored logits —
// bit-identical to direct inference (see PrecomputeHubs).
func WithPrecomputeHubs(frac float64) Option {
	return func(cfg *serverConfig) { cfg.precompute = frac }
}

// WithBatchWindow sets how long the micro-batcher holds a request open
// for coalescing (default: no batching window).
func WithBatchWindow(d time.Duration) Option { return func(cfg *serverConfig) { cfg.batch.Window = d } }

// WithBatchMaxNodes caps the coalesced batch size, flushing early when
// reached.
func WithBatchMaxNodes(n int) Option { return func(cfg *serverConfig) { cfg.batch.MaxNodes = n } }

// New assembles the serving stack — cache, inferencer, hub store,
// micro-batcher, HTTP handler — from a source, a checkpointed model,
// and functional options (NewInferencer and NewServer are its building
// blocks):
//
//	srv, err := serve.New(serve.Source{Graph: g, Features: feats}, model,
//	        serve.WithPolicy(serve.PolicyTwoTier),
//	        serve.WithCacheBytes(4<<20),
//	        serve.WithHubPin(0.01),
//	        serve.WithPrecomputeHubs(0.01))
func New(src Source, model *nn.GNN, opts ...Option) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: model is required")
	}
	if src.Graph == nil || src.Features == nil {
		return nil, fmt.Errorf("serve: source graph and features are required")
	}
	cfg := serverConfig{policy: PolicyLRU}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.hubPin < 0 || cfg.hubPin > 1 || cfg.precompute < 0 || cfg.precompute > 1 {
		return nil, fmt.Errorf("serve: hub fractions must be in [0,1]: pin=%g precompute=%g", cfg.hubPin, cfg.precompute)
	}
	cache := cfg.cache
	if cache == nil && cfg.cacheBytes > 0 {
		var pinned []graph.NodeID
		if cfg.hubPin > 0 {
			pinned = graph.TopDegree(src.Graph, graph.HubCount(src.Graph.NumNodes, cfg.hubPin))
		}
		// An fp16 source's rows are fp16-exact, so the cache stores them
		// packed (two values per float32 element): the policy budgets
		// against the packed row size and the same byte budget holds
		// roughly twice the rows, losslessly.
		dt := FeatureSourceDtype(src.Features)
		var err error
		cache, err = NewCache(cfg.policy, CacheConfig{
			CapBytes:   cfg.cacheBytes,
			RowBytes:   StoredRowBytes(src.Features.Dim(), dt),
			Pinned:     pinned,
			TailPolicy: cfg.tailPolicy,
		})
		if err != nil {
			return nil, err
		}
		if dt == graph.DtypeF16 {
			cache = newHalfCache(cache, src.Features.Dim())
		}
	}
	inf, err := NewInferencer(InferencerOptions{
		Model:    model,
		Graph:    src.Graph,
		Features: src.Features,
		Cache:    cache,
	})
	if err != nil {
		return nil, err
	}
	if cfg.precompute > 0 {
		hubs := graph.TopDegree(src.Graph, graph.HubCount(src.Graph.NumNodes, cfg.precompute))
		if _, err := inf.PrecomputeHubs(hubs); err != nil {
			return nil, err
		}
	}
	return NewServer(inf, cfg.batch, string(model.Spec.Kind)), nil
}
