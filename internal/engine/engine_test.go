package engine

import (
	"testing"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

func testDataset(t testing.TB) *graph.Dataset {
	t.Helper()
	spec := graph.DatasetSpec{
		Name:          "unit",
		ScaledNodes:   400,
		ScaledEdges:   3000,
		ScaledF0:      16,
		ScaledHidden:  8,
		ScaledClasses: 4,
		Homophily:     0.7,
		Exponent:      2.2,
		TrainFrac:     0.5,
	}
	ds, err := graph.Build(spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testConfig(t testing.TB, ds *graph.Dataset, n int) Config {
	t.Helper()
	return Config{
		Dataset:       ds,
		Sampler:       sampler.NewNeighbor(ds.Graph, []int{5, 5}),
		Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{16, 8, 4}, Seed: 11},
		BatchSize:     64,
		LR:            0.01,
		NumProcs:      n,
		SampleWorkers: 2,
		TrainWorkers:  2,
		Seed:          77,
	}
}

func TestNewValidation(t *testing.T) {
	ds := testDataset(t)
	bad := []Config{
		{},
		{Dataset: ds},
		{Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{5}), BatchSize: 0, NumProcs: 1, SampleWorkers: 1, TrainWorkers: 1},
		{Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{5}), BatchSize: 8, NumProcs: 0, SampleWorkers: 1, TrainWorkers: 1},
		{Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{5}), BatchSize: 8, NumProcs: 1, SampleWorkers: 0, TrainWorkers: 1},
		{Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{5}), BatchSize: 8, NumProcs: 1, SampleWorkers: 1, TrainWorkers: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestSingleProcessTrainingReducesLoss(t *testing.T) {
	ds := testDataset(t)
	e, err := New(testConfig(t, ds, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	var last EpochResult
	for ep := 1; ep < 8; ep++ {
		last, err = e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.MeanLoss >= first.MeanLoss {
		t.Fatalf("loss did not decrease: %v → %v", first.MeanLoss, last.MeanLoss)
	}
	if acc, err := e.Evaluate(ds.ValIdx); err != nil || acc < 1.5/float64(ds.NumClasses) {
		t.Fatalf("validation accuracy %.3f barely above chance (err %v)", acc, err)
	}
}

func TestMultiProcessReplicasStayIdentical(t *testing.T) {
	ds := testDataset(t)
	e, err := New(testConfig(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 3; ep++ {
		if _, err := e.RunEpoch(ep); err != nil {
			t.Fatal(err)
		}
		if d := ddp.MaxWeightDivergence(e.ParamSets()); d != 0 {
			t.Fatalf("epoch %d: replicas diverged by %v", ep, d)
		}
	}
}

// Every iteration must process one global batch of BatchSize targets
// (except the tail), regardless of the number of processes — the paper's
// effective-batch-size guarantee.
func TestEffectiveBatchSizePreserved(t *testing.T) {
	ds := testDataset(t)
	for _, n := range []int{1, 2, 4} {
		e, err := New(testConfig(t, ds, n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchSeen != len(ds.TrainIdx) {
			t.Fatalf("n=%d: processed %d targets, want %d", n, res.BatchSeen, len(ds.TrainIdx))
		}
		wantIters := (len(ds.TrainIdx) + 63) / 64
		if res.NumIters != wantIters {
			t.Fatalf("n=%d: %d iterations, want %d (global batches)", n, res.NumIters, wantIters)
		}
	}
}

// Multi-process training must converge like single-process training
// (Fig. 9): final accuracies within a small gap.
func TestConvergenceMatchesSingleProcess(t *testing.T) {
	ds := testDataset(t)
	accs := map[int]float64{}
	for _, n := range []int{1, 4} {
		e, err := New(testConfig(t, ds, n))
		if err != nil {
			t.Fatal(err)
		}
		for ep := 0; ep < 10; ep++ {
			if _, err := e.RunEpoch(ep); err != nil {
				t.Fatal(err)
			}
		}
		if accs[n], err = e.Evaluate(ds.ValIdx); err != nil {
			t.Fatal(err)
		}
	}
	gap := accs[1] - accs[4]
	if gap < 0 {
		gap = -gap
	}
	if gap > 0.12 {
		t.Fatalf("accuracy gap %.3f between n=1 (%.3f) and n=4 (%.3f)", gap, accs[1], accs[4])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	ds := testDataset(t)
	run := func() float64 {
		e, err := New(testConfig(t, ds, 2))
		if err != nil {
			t.Fatal(err)
		}
		var last EpochResult
		for ep := 0; ep < 2; ep++ {
			last, err = e.RunEpoch(ep)
			if err != nil {
				t.Fatal(err)
			}
		}
		return last.MeanLoss
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same config+seed must reproduce: %v vs %v", a, b)
	}
}

// Worker counts (s, t) are performance knobs only: they must not change
// the computed losses.
func TestWorkerCountsDoNotChangeResults(t *testing.T) {
	ds := testDataset(t)
	loss := func(s, tw int) float64 {
		cfg := testConfig(t, ds, 2)
		cfg.SampleWorkers = s
		cfg.TrainWorkers = tw
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLoss
	}
	ref := loss(1, 1)
	for _, c := range [][2]int{{2, 1}, {1, 4}, {4, 4}} {
		if got := loss(c[0], c[1]); got != ref {
			t.Fatalf("s=%d t=%d changed loss: %v vs %v", c[0], c[1], got, ref)
		}
	}
}

func TestBatchHookFires(t *testing.T) {
	ds := testDataset(t)
	e, err := New(testConfig(t, ds, 2))
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	e.BatchHook = func(it int) { calls = append(calls, it) }
	res, err := e.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != res.NumIters {
		t.Fatalf("hook fired %d times for %d iters", len(calls), res.NumIters)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] != calls[i-1]+1 {
			t.Fatal("hook iteration counter must be contiguous")
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	ds := testDataset(t)
	e, err := New(testConfig(t, ds, 1))
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := e.Evaluate(nil); acc != 0 || err != nil {
		t.Fatalf("empty evaluation must return 0, got %v (err %v)", acc, err)
	}
}

func TestShadowEngineTrains(t *testing.T) {
	ds := testDataset(t)
	cfg := testConfig(t, ds, 2)
	cfg.Sampler = sampler.NewShaDow(ds.Graph, []int{5, 3}, 2)
	cfg.Model = nn.ModelSpec{Kind: nn.KindGCN, Dims: []int{16, 8, 4}, Seed: 12}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	var last EpochResult
	for ep := 1; ep < 6; ep++ {
		last, err = e.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.MeanLoss >= first.MeanLoss {
		t.Fatalf("ShaDow-GCN loss did not decrease: %v → %v", first.MeanLoss, last.MeanLoss)
	}
	if d := ddp.MaxWeightDivergence(e.ParamSets()); d != 0 {
		t.Fatalf("ShaDow replicas diverged by %v", d)
	}
}

func TestEpochStatsAccumulate(t *testing.T) {
	ds := testDataset(t)
	e, err := New(testConfig(t, ds, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SampledEdges == 0 || res.Stats.InputNodes == 0 {
		t.Fatalf("epoch stats empty: %+v", res.Stats)
	}
	if res.Duration <= 0 {
		t.Fatal("duration must be positive")
	}
}
