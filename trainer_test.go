package argo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

func trainerOpts(t testing.TB) GNNTrainerOptions {
	t.Helper()
	spec := graph.DatasetSpec{
		Name: "core-unit", ScaledNodes: 300, ScaledEdges: 2200,
		ScaledF0: 12, ScaledHidden: 8, ScaledClasses: 4,
		Homophily: 0.7, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := graph.Build(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	return GNNTrainerOptions{
		Dataset:   ds,
		Sampler:   sampler.NewNeighbor(ds.Graph, []int{4, 4}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{12, 8, 4}, Seed: 3},
		BatchSize: 50,
		LR:        0.01,
		Seed:      9,
	}
}

func TestNewTrainerValidation(t *testing.T) {
	if _, err := NewGNNTrainer(GNNTrainerOptions{}); err == nil {
		t.Fatal("empty options must be rejected")
	}
	opts := trainerOpts(t)
	opts.BatchSize = 0
	if _, err := NewGNNTrainer(opts); err == nil {
		t.Fatal("zero batch size must be rejected")
	}
}

func TestTrainerStepRunsEpochs(t *testing.T) {
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	secs, err := tr.Step(context.Background(), Config{Procs: 2, SampleCores: 1, TrainCores: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatal("epoch time must be positive")
	}
	if tr.Epochs() != 3 {
		t.Fatalf("Epoch() = %d, want 3", tr.Epochs())
	}
	if _, err := tr.Step(context.Background(), Config{Procs: 2, SampleCores: 1, TrainCores: 1}, 0); err != nil {
		t.Fatal("zero epochs must be a no-op")
	}
}

// Reconfiguration must carry weights: training must keep improving across
// configuration changes rather than restarting from scratch.
func TestTrainerCarriesWeightsAcrossConfigs(t *testing.T) {
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	configs := []Config{
		{Procs: 1, SampleCores: 1, TrainCores: 2},
		{Procs: 4, SampleCores: 1, TrainCores: 1},
		{Procs: 2, SampleCores: 2, TrainCores: 2},
	}
	for _, cfg := range configs {
		if _, err := tr.Step(context.Background(), cfg, 4); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := tr.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// 12 total epochs on an easy planted-community dataset: accuracy must
	// be far above the 0.25 chance level — impossible if weights were
	// reset at each re-launch (4 epochs per config would not suffice for
	// this margin... but 12 cumulative epochs are).
	fresh, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Step(context.Background(), configs[2], 4); err != nil {
		t.Fatal(err)
	}
	freshAcc, err := fresh.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if acc <= freshAcc {
		t.Fatalf("carried-weights accuracy %.3f not above fresh-4-epoch accuracy %.3f", acc, freshAcc)
	}
}

// Any feasible configuration trains, however many workers it asks for:
// n, s and t are worker counts, and (9, 10, 10) — 180 workers — is
// feasible on 200 cores with the process count pinned to 9
// (argo-train -cores 200 -procs 9).
func TestWideFeasibleConfigTrains(t *testing.T) {
	cfg := Config{Procs: 9, SampleCores: 10, TrainCores: 10}
	sp := DefaultSpace(200)
	sp.MinProcs, sp.MaxProcs = 9, 9
	if !sp.Feasible(cfg) {
		t.Fatalf("%s is not in the pinned space", cfg)
	}
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(context.Background(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	if loss := tr.LossHistory()[0]; math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %v after one epoch under %s", loss, cfg)
	}
}

func TestEvaluateWithoutStep(t *testing.T) {
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	acc, err := tr.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

// Cancellation must surface between epochs and leave the trainer usable.
func TestTrainerStepHonoursContext(t *testing.T) {
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := Config{Procs: 1, SampleCores: 1, TrainCores: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Step(ctx, cfg, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Step returned %v, want context.Canceled", err)
	}
	if tr.Epochs() != 0 {
		t.Fatalf("cancelled Step trained %d epochs", tr.Epochs())
	}
	if _, err := tr.Step(context.Background(), cfg, 1); err != nil {
		t.Fatalf("trainer unusable after cancellation: %v", err)
	}
}

// slowSampler takes 2 ms a batch and counts the calls still running.
type slowSampler struct {
	sampler.Sampler
	running atomic.Int32
}

func (s *slowSampler) Sample(rng *rand.Rand, targets []graph.NodeID) *sampler.MiniBatch {
	s.running.Add(1)
	defer s.running.Add(-1)
	time.Sleep(2 * time.Millisecond)
	return s.Sampler.Sample(rng, targets)
}

// The last epoch leaves its prefetchers sampling the next epoch's first
// batches; Close stops them and waits, so no sampling runs after it.
func TestTrainerCloseStopsLookahead(t *testing.T) {
	opts := trainerOpts(t)
	slow := &slowSampler{Sampler: opts.Sampler}
	opts.Sampler = slow
	tr, err := NewGNNTrainer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(context.Background(), Config{Procs: 1, SampleCores: 2, TrainCores: 1}, 2); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if n := slow.running.Load(); n != 0 {
		t.Fatalf("%d Sample calls still running after Close", n)
	}
}

// A reconfiguration that would change the model is refused, and the
// trainer stays usable: once the spec is restored, the next Step trains
// on the same engine.
func TestRelaunchFailureLeavesTrainerUsable(t *testing.T) {
	tr, err := NewGNNTrainer(trainerOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(context.Background(), Config{Procs: 1, SampleCores: 1, TrainCores: 1}, 1); err != nil {
		t.Fatal(err)
	}
	eng, dims := tr.eng, tr.opts.Model.Dims
	tr.opts.Model.Dims = []int{12, 6, 4}
	if _, err := tr.Step(context.Background(), Config{Procs: 2, SampleCores: 1, TrainCores: 1}, 1); err == nil {
		t.Fatal("a changed model spec must fail the step")
	}
	if tr.Epochs() != 1 || tr.eng.Config().NumProcs != 1 {
		t.Fatalf("the refused step trained %d epochs and left n=%d; want 1 epoch at n=1", tr.Epochs(), tr.eng.Config().NumProcs)
	}
	tr.opts.Model.Dims = dims
	if _, err := tr.Step(context.Background(), Config{Procs: 2, SampleCores: 1, TrainCores: 1}, 1); err != nil {
		t.Fatalf("trainer unusable after a refused reconfiguration: %v", err)
	}
	if tr.eng != eng {
		t.Fatal("the trainer replaced its engine instead of reconfiguring it")
	}
}

// A reconfiguration keeps the optimizer with the weights. Moving only
// (s, t) cannot change results (engine.TestWorkerCountsDoNotChangeResults),
// so a schedule that alternates them must reproduce the pinned run's
// losses bit for bit — which it does not if a move restarts Adam at step
// 0 with zero moments.
func TestRelaunchCarriesOptimizerState(t *testing.T) {
	run := func(cfgs ...Config) []float64 {
		tr, err := NewGNNTrainer(trainerOpts(t))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for _, cfg := range cfgs {
			if _, err := tr.Step(context.Background(), cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
		return tr.LossHistory()
	}
	a, b := Config{Procs: 1, SampleCores: 1, TrainCores: 1}, Config{Procs: 1, SampleCores: 2, TrainCores: 2}
	pinned, moved := run(a, a, a, a), run(a, b, a, b)
	for ep := range pinned {
		if pinned[ep] != moved[ep] {
			t.Fatalf("epoch %d: loss %v under (1,1,1)/(1,2,2), %v pinned at (1,1,1) — the move lost training state", ep, moved[ep], pinned[ep])
		}
	}
}
