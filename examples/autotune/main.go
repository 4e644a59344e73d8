// Autotune: compare every registered ARGO tuning strategy — Bayesian
// optimization, simulated annealing, random search, exhaustive
// enumeration — on the simulated 112-core Ice Lake design space for
// ShaDow-GCN on ogbn-products, all through the public strategy registry
// on the same evaluation budget (the Table IV experiment, one cell).
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	"argo"
	"argo/internal/graph"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/search"
)

func main() {
	ds, err := graph.Spec("ogbn-products")
	if err != nil {
		log.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.IceLake4S,
		Library:  platsim.DGL,
		Sampler:  platsim.Shadow,
		Model:    platsim.GCN,
		Dataset:  ds,
	}
	space := argo.DefaultSpace(112)
	obj := platsim.NewObjective(sc)

	const budget = 45 // Table VI: ShaDow on Ice Lake
	fmt.Printf("design space: %d configurations; budget %d (%.0f%%)\n\n",
		space.Size(), budget, 100*float64(budget)/float64(space.Size()))

	// Exhaustive reference over the whole space (the paper calls this
	// intractable on hardware; the simulator makes it cheap).
	exh := search.Run(search.NewExhaustiveSearcher(space), obj)
	fmt.Printf("exhaustive optimum (full space): %s at %.2fs/epoch\n\n", exh.Best, exh.BestTime)

	// Every registered strategy on the identical budget, narrating the
	// auto-tuner's proposals.
	for _, name := range argo.Strategies() {
		strat, err := argo.NewStrategy(name, space, budget, 7)
		if err != nil {
			log.Fatal(err)
		}
		evals := 0
		for evals < budget {
			cfg, ok := strat.Next()
			if !ok {
				break
			}
			secs := obj.Evaluate(cfg)
			strat.Observe(cfg, secs)
			evals++
			if name == argo.StrategyBayesOpt && (evals <= 10 || evals%10 == 0) {
				best, bestSecs := strat.Best()
				fmt.Printf("  search %2d: tried %-15s %6.2fs   best so far %-15s %6.2fs\n",
					evals, cfg.String(), secs, best.String(), bestSecs)
			}
		}
		best, bestSecs := strat.Best()
		fmt.Printf("%-11s best %-15s %6.2fs/epoch — %3.0f%% of optimal, overhead %s\n",
			name, best.String(), bestSecs, 100*exh.BestTime/bestSecs, strat.Overhead().Round(1000))
	}
	fmt.Println("\nexhaustive sees only its first 45 enumerated configs at this budget —")
	fmt.Println("the point of the paper: a model-guided search finds the optimum online.")
}
