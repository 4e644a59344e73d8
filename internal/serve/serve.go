package serve

import (
	"fmt"
	"net/http"
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
	policy     string
	cacheBytes int64
	precompute float64
	batch      BatcherConfig
}

// WithPolicy selects the cache replacement policy by name (default lru;
// see Policies).
func WithPolicy(name string) Option { return func(cfg *serverConfig) { cfg.policy = name } }

// WithCacheBytes sets the cache byte budget. 0 (the default) disables
// row caching entirely.
func WithCacheBytes(n int64) Option { return func(cfg *serverConfig) { cfg.cacheBytes = n } }

// WithPrecomputeHubs precomputes per-layer activations for the top frac
// (0..1] of nodes by degree at construction time, so hub frontiers are
// pruned from every gather and hub targets answer from stored logits —
// bit-identical to direct inference (see PrecomputeHubs).
func WithPrecomputeHubs(frac float64) Option {
	return func(cfg *serverConfig) { cfg.precompute = frac }
}

// WithBatchWindow sets the longest a micro-batch waits for callers
// already on their way to the batcher; a lone request never waits. The
// default, 0, runs every request in its own batch (argo-serve's
// -batch-window defaults to 2ms).
func WithBatchWindow(d time.Duration) Option { return func(cfg *serverConfig) { cfg.batch.Window = d } }

// WithBatchMaxNodes caps the coalesced batch size, flushing early when
// reached.
func WithBatchMaxNodes(n int) Option { return func(cfg *serverConfig) { cfg.batch.MaxNodes = n } }

// New assembles the serving stack — cache, inferencer, hub store,
// micro-batcher, HTTP handler — from a source, a checkpointed model,
// and functional options:
//
//	srv, err := serve.New(serve.Source{Graph: g, Features: feats}, model,
//	        serve.WithPolicy(serve.PolicyTinyLFU),
//	        serve.WithCacheBytes(4<<20),
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
	if cfg.precompute < 0 || cfg.precompute > 1 {
		return nil, fmt.Errorf("serve: precompute-hubs fraction %g outside [0,1]", cfg.precompute)
	}
	var cache *rowCache
	if cfg.cacheBytes > 0 {
		var err error
		cache, err = newRowCache(cfg.policy, cfg.cacheBytes, src.Features.Dim(), FeatureSourceDtype(src.Features))
		if err != nil {
			return nil, err
		}
	}
	inf, err := newInferencer(model, src.Graph, src.Features, cache, 1)
	if err != nil {
		return nil, err
	}
	if cfg.precompute > 0 {
		hubs := graph.TopDegree(src.Graph, graph.HubCount(src.Graph.NumNodes, cfg.precompute))
		if _, err := inf.PrecomputeHubs(hubs); err != nil {
			return nil, err
		}
	}
	s := &Server{
		inf:     inf,
		batcher: NewBatcher(inf, cfg.batch),
		mux:     http.NewServeMux(),
		kind:    string(model.Spec.Kind),
		started: time.Now(),
	}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s, nil
}
