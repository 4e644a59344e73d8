package argo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/sampler"
)

func TestNewRuntimeValidation(t *testing.T) {
	bad := []struct {
		epochs, searches int
		opts             []Option
	}{
		{0, 0, nil},
		{10, 0, nil},
		{5, 10, nil},
		{10, 3, []Option{WithTotalCores(-1)}},
		{10, 3, []Option{WithStrategy("no-such-strategy")}},
		{10, 3, []Option{WithEarlyStop(-1)}},
		{10, 3, []Option{WithSpace(Space{})}},
	}
	for i, c := range bad {
		if _, err := NewRuntime(c.epochs, c.searches, c.opts...); err == nil {
			t.Fatalf("case %d must be rejected", i)
		}
	}
	rt, err := NewRuntime(10, 3, WithTotalCores(64))
	if err != nil {
		t.Fatal(err)
	}
	if rt.SpaceSize() != 563 {
		t.Fatalf("SpaceSize = %d, want 563 for 64 cores", rt.SpaceSize())
	}
	if rt.StrategyName() != StrategyBayesOpt {
		t.Fatalf("default strategy %q, want %q", rt.StrategyName(), StrategyBayesOpt)
	}
}

// Run must implement Algorithm 1: NumSearches single-epoch probes, then
// per-epoch reuse of the best configuration (each reuse epoch recorded at
// its own measured cost, not a duplicated mean).
func TestRunFollowsAlgorithm1(t *testing.T) {
	rt, err := NewRuntime(50, 8, WithTotalCores(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		cfg    Config
		epochs int
	}
	var calls []call
	objective := func(cfg Config) float64 {
		dn := float64(cfg.Procs - 4)
		return 2 + 0.3*dn*dn + 0.1*float64(cfg.SampleCores) + 0.05*float64(cfg.TrainCores)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, epochs int) (float64, error) {
		calls = append(calls, call{cfg, epochs})
		return objective(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 50 {
		t.Fatalf("expected 50 per-epoch calls, got %d", len(calls))
	}
	for i, c := range calls {
		if c.epochs != 1 {
			t.Fatalf("call %d ran %d epochs", i, c.epochs)
		}
		if i >= 8 && c.cfg != rep.Best {
			t.Fatalf("reuse call %d used %v, want best %v", i, c.cfg, rep.Best)
		}
	}
	if rep.SearchEpochs != 8 {
		t.Fatalf("SearchEpochs = %d, want 8", rep.SearchEpochs)
	}
	// The reported best must be the minimum of the searched epochs, and
	// must not be overwritten by the reuse phase.
	for _, h := range rep.History[:8] {
		if rep.BestEpochSeconds > h.Seconds {
			t.Fatalf("best %v slower than searched %v", rep.BestEpochSeconds, h.Seconds)
		}
	}
	if rep.BestEpochSeconds != objective(rep.Best) {
		t.Fatalf("BestEpochSeconds %v is not the search-phase observation %v", rep.BestEpochSeconds, objective(rep.Best))
	}
	if d := rep.ReuseEpochSeconds - objective(rep.Best); d > 1e-9 || d < -1e-9 {
		t.Fatalf("ReuseEpochSeconds %v, want reuse mean %v", rep.ReuseEpochSeconds, objective(rep.Best))
	}
	if len(rep.History) != 50 {
		t.Fatalf("history has %d records, want 50", len(rep.History))
	}
	if rep.History[7].Phase != PhaseSearch || rep.History[8].Phase != PhaseReuse {
		t.Fatal("phases mislabelled")
	}
	wantTotal := 0.0
	for _, h := range rep.History {
		wantTotal += h.Seconds
	}
	if diff := rep.TotalSeconds - wantTotal; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("TotalSeconds %v != history sum %v", rep.TotalSeconds, wantTotal)
	}
	if rep.Strategy != StrategyBayesOpt {
		t.Fatalf("report strategy %q", rep.Strategy)
	}
}

// The reuse phase must record each epoch's actual measured duration, not
// duplicate the phase mean across the history.
func TestRunRecordsActualReuseEpochs(t *testing.T) {
	rt, err := NewRuntime(10, 2, WithTotalCores(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
		n++
		return float64(n), nil // every epoch takes a different, known time
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range rep.History {
		if h.Seconds != float64(i+1) {
			t.Fatalf("epoch %d recorded %.0fs, want %d", i, h.Seconds, i+1)
		}
	}
	// Search best is min(1,2)=1; reuse mean is mean(3..10)=6.5. The two
	// must stay separate.
	if rep.BestEpochSeconds != 1 {
		t.Fatalf("BestEpochSeconds %v overwritten (want search-phase 1)", rep.BestEpochSeconds)
	}
	if rep.ReuseEpochSeconds != 6.5 {
		t.Fatalf("ReuseEpochSeconds %v, want 6.5", rep.ReuseEpochSeconds)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	rt, err := NewRuntime(10, 2, WithTotalCores(64))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("search error not propagated: %v", err)
	}
	n := 0
	if _, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, epochs int) (float64, error) {
		n++
		if n > 2 {
			return 0, boom
		}
		return 1, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("reuse error not propagated: %v", err)
	}
}

func TestRunLogsAndEvents(t *testing.T) {
	var lines []string
	var events []Event
	rt, err := NewRuntime(4, 2, WithTotalCores(64),
		WithLogf(func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }),
		WithEvents(func(e Event) { events = append(events, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("expected 3 log lines, got %d: %q", len(lines), lines)
	}
	if !strings.Contains(lines[2], "reuse") {
		t.Fatalf("final line should describe the reuse phase: %q", lines[2])
	}
	if len(events) != 4 {
		t.Fatalf("expected one event per epoch, got %d", len(events))
	}
	for i, e := range events {
		if e.Epoch != i {
			t.Fatalf("event %d has epoch %d", i, e.Epoch)
		}
		want := PhaseSearch
		if i >= 2 {
			want = PhaseReuse
		}
		if e.Phase != want {
			t.Fatalf("event %d phase %q, want %q", i, e.Phase, want)
		}
		if e.Strategy != StrategyBayesOpt {
			t.Fatalf("event %d strategy %q", i, e.Strategy)
		}
	}
	if events[3].Searched != 2 {
		t.Fatalf("final event Searched = %d, want 2", events[3].Searched)
	}
}

// End-to-end against the platform simulator: the runtime must find a
// configuration within 90 % of the exhaustive optimum with a ~5 % budget —
// the paper's headline auto-tuner claim, via the public API.
func TestRunFindsNearOptimalOnSimulator(t *testing.T) {
	p, err := datasets.Get("ogbn-products")
	if err != nil {
		t.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.SapphireRapids2S,
		Library:  platsim.DGL,
		Sampler:  platsim.Neighbor,
		Model:    platsim.SAGE,
		Dataset:  p.Spec,
	}
	obj := platsim.NewObjective(sc)
	_, optimal := platsim.BestWithBudget(sc, 64)

	rt, err := NewRuntime(200, 20, WithTotalCores(64), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, epochs int) (float64, error) {
		return obj.Evaluate(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if quality := optimal / rep.BestEpochSeconds; quality < 0.9 {
		t.Fatalf("tuner quality %.3f below 0.9 (found %.3fs, optimal %.3fs)", quality, rep.BestEpochSeconds, optimal)
	}
	if rep.TunerOverhead <= 0 {
		t.Fatal("tuner overhead must be measured")
	}
}

// End-to-end with the real training engine on a scaled dataset: ARGO must
// run the full Listing-1 flow and leave a trained model behind.
func TestRunWithRealGNNTrainer(t *testing.T) {
	spec := graph.DatasetSpec{
		Name: "api-test", ScaledNodes: 300, ScaledEdges: 2200,
		ScaledF0: 12, ScaledHidden: 8, ScaledClasses: 4,
		Homophily: 0.7, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := graph.Build(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset:   ds,
		Sampler:   sampler.NewNeighbor(ds.Graph, []int{4, 4}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{12, 8, 4}, Seed: 2},
		BatchSize: 50,
		LR:        0.01,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()

	rt, err := NewRuntime(10, 4, WithTotalCores(16), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), trainer.Step)
	if err != nil {
		t.Fatal(err)
	}
	if trainer.Epochs() != 10 {
		t.Fatalf("trained %d epochs, want 10", trainer.Epochs())
	}
	if rep.Best.TotalCores() > 16 {
		t.Fatalf("best config %v exceeds 16 cores", rep.Best)
	}
	acc, err := trainer.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.4 { // chance is 0.25 on 4 classes
		t.Fatalf("post-training accuracy %.3f too low", acc)
	}
}
