package engine

import (
	"math"
	"slices"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// reconfigureSetup returns an exact-regime configuration over a 3-shard
// set of tiny, with no process count yet, and a source over the set's
// one feature table.
func reconfigureSetup(t *testing.T) (Config, DataSource) {
	t.Helper()
	const seed = 7
	ds, err := datasets.Resolve("tiny", seed)
	if err != nil {
		t.Fatal(err)
	}
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 3, Seed: seed})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	src := shardSources(t, ss, 1)[0]
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
	return cfg, src
}

// withProcs returns cfg moved to n replicas, each reading src.
func withProcs(cfg Config, src DataSource, n int) Config {
	cfg.NumProcs, cfg.Sources = n, slices.Repeat([]DataSource{src}, n)
	return cfg
}

// Reconfigure grows and shrinks the replica set around one parameter
// set and one feature table: after every move each replica's parameters
// point at replica 0's weights, and each replica reads the table the
// source loaded, through its own buffer pool. (The loss
// bits across such moves are pinned by the root package's trainer
// schedule.)
func TestReconfigureSharesOneParameterSet(t *testing.T) {
	base, src := reconfigureSetup(t)
	var e *Engine
	for ep, n := range []int{2, 3, 1, 3} {
		cfg := withProcs(base, src, n)
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
		requireSharedTable(t, e, src)
	}
}

// requireSharedTable fails unless every replica of e reads src's
// feature table, pointer for pointer, into the replica's own buffer pool.
func requireSharedTable(t *testing.T, e *Engine, src DataSource) {
	t.Helper()
	want := src.(datasetSource).ds
	for r, rep := range e.replicas {
		s, ok := rep.source.(datasetSource)
		if !ok {
			t.Fatalf("replica %d reads a %T", r, rep.source)
		}
		if s.ds != want || s.ds.Features != want.Features {
			t.Fatalf("replica %d reads another feature table", r)
		}
		if s.bufs != rep.model.Buffers() {
			t.Fatalf("replica %d gathers outside its own buffer pool", r)
		}
	}
}

// A refused reconfiguration mutates nothing: a changed model, a changed
// dataset and an invalid learning rate each leave the engine as it was.
func TestReconfigureRefusalsLeaveEngineUntouched(t *testing.T) {
	base, src := reconfigureSetup(t)
	cfg := withProcs(base, src, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	three := withProcs(base, src, 3)
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
