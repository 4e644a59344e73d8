package argo

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// The binary store must be transparent to training: a 4-epoch auto-tuned
// run on a freshly generated `tiny` dataset and on its save→load copy
// must walk the same configuration sequence and end in bit-identical
// model weights. Epoch times fed to the strategy are derived
// deterministically from the configuration (real training still runs),
// so the tuner's decisions — and therefore the training trajectory —
// cannot diverge on wall-clock noise.
func TestGeneratedAndReloadedDatasetTrainIdentically(t *testing.T) {
	ds, err := datasets.Build("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := graph.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}

	run := func(d *graph.Dataset) (Report, []*tensor.Matrix) {
		t.Helper()
		trainer, err := NewGNNTrainer(GNNTrainerOptions{
			Dataset:   d,
			Sampler:   sampler.NewNeighbor(d.Graph, []int{4, 4}),
			Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{d.Spec.ScaledF0, d.Spec.ScaledHidden, d.NumClasses}, Seed: 7},
			BatchSize: 32,
			LR:        0.01,
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer trainer.Close()
		rt, err := NewRuntime(4, 2, WithTotalCores(8), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(context.Background(), func(ctx context.Context, cfg Config, epochs int) (float64, error) {
			if _, err := trainer.Step(ctx, cfg, epochs); err != nil {
				return 0, err
			}
			return 0.1 * float64(cfg.TotalCores()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var weights []*tensor.Matrix
		for _, p := range trainer.eng.Model(0).Params() {
			weights = append(weights, p.W.Clone())
		}
		return rep, weights
	}

	repGen, wGen := run(ds)
	repLoad, wLoad := run(reloaded)

	if len(repGen.History) != 4 || len(repLoad.History) != len(repGen.History) {
		t.Fatalf("history lengths %d and %d, want 4", len(repGen.History), len(repLoad.History))
	}
	for i := range repGen.History {
		a, b := repGen.History[i], repLoad.History[i]
		if a.Config != b.Config || a.Phase != b.Phase || a.Seconds != b.Seconds {
			t.Fatalf("epoch %d diverged: generated ran %+v, reloaded ran %+v", i, a, b)
		}
	}
	if repGen.Best != repLoad.Best {
		t.Fatalf("best configs diverged: %s vs %s", repGen.Best, repLoad.Best)
	}
	if len(wGen) == 0 || len(wGen) != len(wLoad) {
		t.Fatalf("weight tensor counts %d and %d", len(wGen), len(wLoad))
	}
	for i := range wGen {
		if wGen[i].Rows != wLoad[i].Rows || wGen[i].Cols != wLoad[i].Cols {
			t.Fatalf("weight %d shapes differ", i)
		}
		for j := range wGen[i].Data {
			if math.Float32bits(wGen[i].Data[j]) != math.Float32bits(wLoad[i].Data[j]) {
				t.Fatalf("weight %d element %d not bit-identical: %v vs %v",
					i, j, wGen[i].Data[j], wLoad[i].Data[j])
			}
		}
	}
}

// A report must re-marshal to the exact bytes it was parsed from —
// otherwise warm-start files churn on every rewrite. Exercised with a
// history that includes a crashed epoch, the one field with a custom
// JSON codec.
func TestReportJSONByteStable(t *testing.T) {
	rep := Report{
		Strategy:         StrategyAnneal,
		Best:             Config{Procs: 2, SampleCores: 1, TrainCores: 3},
		BestEpochSeconds: 1.25,
		History: []EpochRecord{
			{Epoch: 0, Config: Config{Procs: 2, SampleCores: 1, TrainCores: 3}, Seconds: 1.25, Phase: PhaseSearch},
			{Epoch: 1, Config: Config{Procs: 8, SampleCores: 2, TrainCores: 2}, Seconds: math.Inf(1), Phase: PhaseSearch},
			{Epoch: 2, Config: Config{Procs: 2, SampleCores: 1, TrainCores: 3}, Seconds: 1.125, Phase: PhaseReuse},
		},
		SearchEpochs:      2,
		ReuseEpochSeconds: 1.125,
		TunerOverhead:     1500,
		TotalSeconds:      2.375,
	}
	var first bytes.Buffer
	if err := rep.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("marshal → unmarshal → marshal changed the bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}

// Warm-starting from a report produced on a different dataset and a
// bigger machine must drop the records that are infeasible here (as
// documented on Runtime.Run) and still finish with a locally feasible
// incumbent.
func TestWarmStartAcrossDatasetsDropsInfeasible(t *testing.T) {
	objective := func(spec graph.DatasetSpec) func(Config) float64 {
		scale := float64(spec.ScaledNodes)
		return func(cfg Config) float64 {
			return scale / float64(cfg.TotalCores())
		}
	}

	// Prior run: reddit-sim workload on a 112-core machine.
	reddit, err := datasets.Get("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	redditObj := objective(reddit.Spec)
	prior, err := NewRuntime(8, 6, WithTotalCores(112), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	priorRep, err := prior.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
		return redditObj(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if priorRep.Best.TotalCores() <= 16 {
		t.Skipf("prior best %s already fits 16 cores; cannot exercise the drop", priorRep.Best)
	}

	// New run: arxiv-sim workload on 16 cores, warm-started from the
	// foreign report.
	arxiv, err := datasets.Get("arxiv-sim")
	if err != nil {
		t.Fatal(err)
	}
	arxivObj := objective(arxiv.Spec)
	space := DefaultSpace(16)
	var dropLogged bool
	rt, err := NewRuntime(6, 3, WithSpace(space), WithSeed(2), WithWarmStart(priorRep),
		WithLogf(func(format string, args ...any) {
			if len(args) >= 2 {
				if n, ok := args[1].(int); ok && n > 0 {
					dropLogged = true
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
		if !space.Feasible(cfg) {
			t.Fatalf("infeasible config %s trained after cross-dataset warm start", cfg)
		}
		return arxivObj(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !space.Feasible(rep.Best) || rep.Best.TotalCores() > 16 {
		t.Fatalf("best %s infeasible on 16 cores", rep.Best)
	}
	if !dropLogged {
		t.Fatal("dropping infeasible warm-start records was not reported")
	}
}
