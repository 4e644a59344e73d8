package engine

import (
	"math"
	"testing"

	"argo/internal/datasets"
	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// reconfigureSetup returns a 2-replica exact-regime configuration over
// a 3-shard set of tiny, and the shard set for building other process
// counts' sources.
func reconfigureSetup(t *testing.T) (Config, *graph.ShardSet) {
	t.Helper()
	const seed = 7
	ds, err := datasets.Resolve("tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dataset:       skel,
		Sampler:       sampler.NewNeighbor(skel.Graph, []int{4, 4}),
		Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: seed},
		BatchSize:     32,
		LR:            0.01,
		SampleWorkers: 1,
		TrainWorkers:  1,
		Seed:          seed,
	}
	return cfg, ss
}

// withProcs returns cfg moved to n replicas over fresh shard sources,
// and their exchange, which the test's cleanup closes.
func withProcs(t *testing.T, cfg Config, ss *graph.ShardSet, n int) (Config, *ddp.HaloExchange) {
	t.Helper()
	sources, ex, err := NewShardSourcesOpts(ss, n, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Close() })
	cfg.NumProcs, cfg.Sources = n, sources
	return cfg, ex
}

// An (s, t) move at the same n keeps every replica's feature cache. The
// epoch after the move replays the warm epoch's index, so it draws the
// same batches (sampling is independent of s) and needs only rows the
// warm epoch cached: the exchange stays silent.
func TestReconfigureKeepsFeatureCaches(t *testing.T) {
	base, ss := reconfigureSetup(t)
	cfg, ex := withProcs(t, base, ss, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	warm := ex.Summary().Messages
	if warm == 0 {
		t.Fatal("the warm epoch sent no message; the set has no halo to cache")
	}
	cfg.SampleWorkers, cfg.TrainWorkers = 2, 2
	if err := e.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	if got := ex.Summary().Messages - warm; got != 0 {
		t.Fatalf("the epoch after an (s, t) move sent %d exchange messages, want 0", got)
	}
}

// Reconfigure grows and shrinks the replica set around one parameter
// set: after every move each replica's parameters point at replica 0's
// weights. (The loss bits across such moves are pinned by the root
// package's trainer schedule.)
func TestReconfigureSharesOneParameterSet(t *testing.T) {
	base, ss := reconfigureSetup(t)
	var e *Engine
	for ep, n := range []int{2, 3, 1, 3} {
		cfg, _ := withProcs(t, base, ss, n)
		var err error
		if e == nil {
			e, err = New(cfg)
		} else {
			err = e.Reconfigure(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunEpoch(ep); err != nil {
			t.Fatal(err)
		}
		if got := len(e.replicas); got != n {
			t.Fatalf("n=%d engine holds %d replicas", n, got)
		}
		requireSharedWeights(t, e)
	}
}

// A refused reconfiguration mutates nothing: a changed model, a changed
// dataset and an invalid learning rate each leave the engine as it was.
func TestReconfigureRefusalsLeaveEngineUntouched(t *testing.T) {
	base, ss := reconfigureSetup(t)
	cfg, _ := withProcs(t, base, ss, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	three, _ := withProcs(t, base, ss, 3)
	other := *cfg.Dataset
	for name, mutate := range map[string]func(c *Config){
		"model dims":    func(c *Config) { c.Model.Dims = []int{c.Model.Dims[0], 4, c.Model.Dims[2]} },
		"model seed":    func(c *Config) { c.Model.Seed++ },
		"dataset":       func(c *Config) { c.Dataset = &other },
		"zero lr":       func(c *Config) { c.LR = 0 },
		"nan lr":        func(c *Config) { c.LR = math.NaN() },
		"three sources": func(c *Config) { c.NumProcs = 2 },
	} {
		bad := three
		bad.Model.Dims = append([]int(nil), three.Model.Dims...)
		mutate(&bad)
		if err := e.Reconfigure(bad); err == nil {
			t.Fatalf("%s: Reconfigure accepted it", name)
		}
		if got := e.Config(); got.NumProcs != 2 || len(e.replicas) != 2 || got.LR != cfg.LR {
			t.Fatalf("%s: a refused Reconfigure left n=%d with %d replicas, lr %v", name, got.NumProcs, len(e.replicas), got.LR)
		}
	}
	if _, err := e.RunEpoch(0); err != nil {
		t.Fatalf("engine unusable after refused reconfigurations: %v", err)
	}
}

// New refuses a learning rate that would train nothing, climb the loss
// or poison every weight.
func TestNewRejectsBadLearningRate(t *testing.T) {
	ds := testDataset(t)
	for _, lr := range []float64{0, -0.01, math.NaN(), math.Inf(1)} {
		cfg := testConfig(t, ds, 1)
		cfg.LR = lr
		if _, err := New(cfg); err == nil {
			t.Fatalf("lr %v accepted", lr)
		}
	}
}
