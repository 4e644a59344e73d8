package argo_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"argo"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// ExampleRuntime_Run shows the paper's Listing-1 flow: wrap an existing
// GNN training job in the ARGO runtime and let the online tuning strategy
// pick the multi-process configuration. Seeds are fixed, so the output is
// deterministic.
func ExampleRuntime_Run() {
	ds, err := graph.Build(graph.DatasetSpec{
		Name: "example", ScaledNodes: 300, ScaledEdges: 2200,
		ScaledF0: 12, ScaledHidden: 8, ScaledClasses: 4,
		Homophily: 0.7, Exponent: 2.2, TrainFrac: 0.5,
	}, 5)
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := argo.NewGNNTrainer(argo.GNNTrainerOptions{
		Dataset:   ds,
		Sampler:   sampler.NewNeighbor(ds.Graph, []int{4, 4}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{12, 8, 4}, Seed: 3},
		BatchSize: 50,
		LR:        0.01,
		Seed:      9,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	rt, err := argo.NewRuntime(8, 3,
		argo.WithTotalCores(16),
		argo.WithSeed(4),
		argo.WithStrategy(argo.StrategyBayesOpt),
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := rt.Run(context.Background(), trainer.Step)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d configurations, trained %d epochs\n", report.SearchEpochs, trainer.Epochs())
	fmt.Printf("best configuration uses %d processes\n", report.Best.Procs)
	// Output:
	// searched 3 configurations, trained 8 epochs
	// best configuration uses 1 processes
}

// ExampleNewStrategy shows stepping a strategy directly — the
// propose/observe loop Runtime.Run drives internally. A strategy only
// proposes and learns, so a caller stepping it keeps its own best;
// Runtime.Run keeps it in the Report.
func ExampleNewStrategy() {
	space := argo.DefaultSpace(16)
	strat, err := argo.NewStrategy(argo.StrategyExhaustive, space, space.Size(), 0)
	if err != nil {
		log.Fatal(err)
	}
	evals := 0
	var best argo.Config
	bestCost := math.Inf(1)
	for {
		cfg, ok := strat.Next()
		if !ok {
			break
		}
		// A toy objective: prefer few processes and few cores.
		cost := float64(cfg.TotalCores()) + 0.1*float64(cfg.Procs)
		strat.Observe(cfg, cost)
		if cost < bestCost {
			best, bestCost = cfg, cost
		}
		evals++
	}
	fmt.Printf("evaluated %d configurations\n", evals)
	fmt.Printf("best: %s\n", best)
	// Output:
	// evaluated 140 configurations
	// best: n=1 s=1 t=1
}

// ExampleDefaultSpace shows the configuration space the auto-tuner
// explores on the paper's Ice Lake machine.
func ExampleDefaultSpace() {
	space := argo.DefaultSpace(112)
	fmt.Printf("%d feasible configurations\n", space.Size())
	fmt.Println(space.Feasible(argo.Config{Procs: 8, SampleCores: 4, TrainCores: 10}))
	fmt.Println(space.Feasible(argo.Config{Procs: 8, SampleCores: 10, TrainCores: 10}))
	// Output:
	// 766 feasible configurations
	// true
	// false
}
