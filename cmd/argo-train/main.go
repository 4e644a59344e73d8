// Command argo-train trains a GNN for real (no simulation) on a scaled
// synthetic dataset with an ARGO tuning strategy picking the
// multi-process configuration online — the Go equivalent of the paper's
// Listing 3 workflow. Ctrl-C cancels cleanly between epochs, leaving a
// partial report.
//
// Usage:
//
//	argo-train -dataset products-sim -sampler neighbor -model sage \
//	           -epochs 20 -searches 6 -batch 128 -cores 16 \
//	           -strategy bayesopt -report report.json
//
// -dataset accepts a registry profile name (argo-data ls) or a path to a
// .argograph store written by argo-data gen, so large graphs are
// generated once and reloaded instantly on later runs.
//
// With -shards the dataset is a shard set (name#k or a .shard0 store):
// every shard's features and labels are loaded once, and every replica
// reads them directly — the sampling workers copy a batch's rows while
// the trainer computes the previous batch. -sampling local bounds each
// replica's batches to its shards (shard s belongs to replica s mod n).
//
// -cores is the budget the tuner divides among n processes' s sampling
// and t training workers; the workers are goroutines and no OS thread is
// pinned to a core.
//
// A report written with -report can warm-start a later run via
// -warmstart, skipping the cold random probes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"argo"
	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("argo-train: %v", err)
	}
}

// run is the whole command: it parses args, trains, and writes progress
// and results to stdout. Every refusal of the flags, the runtime's
// included, comes before any dataset is built.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("argo-train", flag.ExitOnError)
	dataset := fs.String("dataset", "products-sim",
		"dataset: a registry profile ("+strings.Join(datasets.Names(), ", ")+") or an .argograph file path")
	samplerName := fs.String("sampler", "neighbor", "sampling algorithm: neighbor or shadow")
	modelName := fs.String("model", "sage", "GNN model: sage or gcn")
	epochs := fs.Int("epochs", 20, "total training epochs")
	searches := fs.Int("searches", 6, "tuning-strategy online-learning epochs")
	batch := fs.Int("batch", 128, "global mini-batch size")
	cores := fs.Int("cores", 16, "core budget the tuner splits into n×(s+t) sampling and training workers (goroutines, not pinned to cores)")
	lr := fs.Float64("lr", 0.01, "Adam learning rate")
	seed := fs.Int64("seed", 1, "random seed")
	strategy := fs.String("strategy", argo.StrategyBayesOpt,
		"tuning strategy: "+strings.Join(argo.Strategies(), ", "))
	earlyStop := fs.Int("early-stop", 0, "stop searching after N stale search epochs (0 = off)")
	reportPath := fs.String("report", "", "write the final report as JSON to this file")
	warmPath := fs.String("warmstart", "", "warm-start the strategy from a previous -report JSON file")
	shards := fs.Bool("shards", false,
		"treat -dataset as a shard set: name#k (in-memory) or the path of a manifest-carrying .shard0 store; "+
			"every replica reads the loaded shards directly")
	procs := fs.Int("procs", 0, "pin the process count: restrict the design space to exactly N processes (0 = tune freely)")
	lossPath := fs.String("loss-json", "", "write the per-epoch mean training loss history as JSON to this file")
	sampling := fs.String("sampling", "exact",
		"sampling regime for -shards runs: exact (global batches, losses bit-identical to single-store) or "+
			"local (partition-local: each replica samples within its shards' owned + 1-hop halo rows, bounding its working set to the partition)")
	ckptPath := fs.String("save-checkpoint", "",
		"write the final model weights to this file (atomic temp+rename); argo-serve loads it for inference")
	fs.Parse(args)

	if !(*lr > 0) || math.IsInf(*lr, 0) {
		return fmt.Errorf("-lr %v: the learning rate must be positive and finite", *lr)
	}
	if *batch < 1 {
		return fmt.Errorf("-batch %d: the batch size must be at least 1", *batch)
	}
	if *procs < 0 {
		return fmt.Errorf("-procs %d: the process count must be 0 (tune freely) or positive", *procs)
	}
	if *earlyStop < 0 {
		return fmt.Errorf("-early-stop %d: the stale-epoch limit must be 0 (off) or positive", *earlyStop)
	}
	if *sampling != "exact" && *sampling != "local" {
		return fmt.Errorf("unknown -sampling %q (exact, local)", *sampling)
	}
	if *sampling == "local" && !*shards {
		return fmt.Errorf("-sampling local needs -shards (partition-local sampling is defined per shard)")
	}
	if *sampling == "local" && *samplerName != "neighbor" {
		return fmt.Errorf("-sampling local supports the neighbor sampler only (got %q)", *samplerName)
	}
	if *samplerName != "neighbor" && *samplerName != "shadow" {
		return fmt.Errorf("unknown sampler %q", *samplerName)
	}
	kind := nn.KindSAGE
	if *modelName == "gcn" {
		kind = nn.KindGCN
	} else if *modelName != "sage" {
		return fmt.Errorf("unknown model %q", *modelName)
	}
	opts := []argo.Option{
		argo.WithTotalCores(*cores),
		argo.WithSeed(*seed),
		argo.WithStrategy(*strategy),
		argo.WithLogf(func(f string, a ...any) { fmt.Fprintf(stdout, f+"\n", a...) }),
	}
	if *procs > 0 {
		sp := argo.DefaultSpace(*cores)
		if *procs > sp.MaxProcs || 2**procs > *cores {
			return fmt.Errorf("-procs %d does not fit -cores %d: a process needs a sampling and a training core, so -procs N needs -cores ≥ 2N (%d here) and N ≤ %d", *procs, *cores, 2**procs, sp.MaxProcs)
		}
		sp.MinProcs, sp.MaxProcs = *procs, *procs
		opts = append(opts, argo.WithSpace(sp))
	}
	if *earlyStop > 0 {
		opts = append(opts, argo.WithEarlyStop(*earlyStop))
	}
	if *warmPath != "" {
		f, err := os.Open(*warmPath)
		if err != nil {
			return err
		}
		prior, err := argo.ReadReport(f)
		f.Close()
		if err != nil {
			return err
		}
		opts = append(opts, argo.WithWarmStart(prior))
	}
	rt, err := argo.NewRuntime(*epochs, *searches, opts...)
	if err != nil {
		return err
	}

	var (
		ds       *graph.Dataset
		shardSet *graph.ShardSet
	)
	if *shards {
		// Shard-aware path: the skeleton (topology + splits) is assembled
		// from topology-only opens; the trainer loads the shards'
		// features and labels once, for every replica to read.
		shardSet, err = datasets.ResolveShards(*dataset, *seed)
		if err != nil {
			return err
		}
		defer shardSet.Close()
		if err := shardSet.Validate(); err != nil {
			return err
		}
		ds, err = shardSet.Skeleton()
		if err != nil {
			return err
		}
		m := &shardSet.Manifest
		fmt.Fprintf(stdout, "shard set %s (k=%d, %s partition): %d nodes, %d arcs, %d classes, %d train targets, edge cut %d arcs (%.1f%%)\n",
			ds.Spec.Name, m.K, m.Partitioner, m.NumNodes, m.NumArcs, m.NumClasses, m.TrainCount,
			m.TotalCutArcs(), 100*m.EdgeCutFraction())
	} else {
		// The lazy handle yields spec and stats from the store header
		// before any section is decoded, so huge stores announce
		// themselves instantly; training then materialises the sections
		// it needs.
		lz, err := datasets.ResolveLazy(*dataset, *seed)
		if err != nil {
			return err
		}
		defer lz.Close()
		st := lz.Stats()
		fmt.Fprintf(stdout, "dataset %s (scaled, %s): %d nodes, %d arcs, %d classes, %d train targets\n",
			lz.Spec().Name, lz.AccessMode(), st.NumNodes, st.NumArcs, st.NumClasses, st.TrainCount)
		ds, err = lz.Dataset()
		if err != nil {
			return err
		}
	}

	layers := 3
	fanouts := []int{15, 10, 5}
	smp := sampler.Sampler(sampler.NewNeighbor(ds.Graph, fanouts))
	if *samplerName == "shadow" {
		smp = sampler.NewShaDow(ds.Graph, []int{10, 5}, layers)
	}
	dims := []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.Spec.ScaledHidden, ds.NumClasses}

	topts := argo.GNNTrainerOptions{
		Dataset:        ds,
		Sampler:        smp,
		Model:          nn.ModelSpec{Kind: kind, Dims: dims, Seed: *seed},
		BatchSize:      *batch,
		LR:             *lr,
		Seed:           *seed,
		Shards:         shardSet,
		SamplingRegime: *sampling,
	}
	if *sampling == "local" {
		fmt.Fprintf(stdout, "sampling regime: partition-local (frontiers bounded to owned + 1-hop halo rows; fanouts %v)\n", fanouts)
	}
	trainer, err := argo.NewGNNTrainer(topts)
	if err != nil {
		return err
	}
	defer trainer.Close()

	fmt.Fprintf(stdout, "strategy %s; design space: %d configurations on %d cores; exploring %d (%.1f%%)\n",
		rt.StrategyName(), rt.SpaceSize(), *cores, *searches, 100*float64(*searches)/float64(rt.SpaceSize()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, runErr := rt.Run(ctx, trainer.Step)
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			fmt.Fprintf(stdout, "argo-train: interrupted after %d epochs, reporting partial run\n", len(report.History))
		} else {
			return runErr
		}
	}
	if *ckptPath != "" {
		if err := trainer.SaveCheckpoint(*ckptPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *ckptPath)
	}
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *reportPath)
	}
	if *lossPath != "" {
		raw, err := json.MarshalIndent(struct {
			Losses []float64 `json:"losses"`
		}{trainer.LossHistory()}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*lossPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loss history (%d epochs) written to %s\n", len(trainer.LossHistory()), *lossPath)
	}
	acc, err := trainer.Evaluate()
	if err != nil {
		return err
	}
	if report.Best == (argo.Config{}) {
		fmt.Fprintln(stdout, "\nno configuration was measured before the run stopped")
		return nil
	}
	fmt.Fprintf(stdout, "\nbest configuration: %s (%.4fs/epoch during search", report.Best, report.BestEpochSeconds)
	if report.ReuseEpochSeconds > 0 {
		fmt.Fprintf(stdout, ", %.4fs/epoch during reuse", report.ReuseEpochSeconds)
	}
	fmt.Fprintf(stdout, ")\n")
	fmt.Fprintf(stdout, "total training time: %.2fs over %d epochs (tuner overhead %s)\n",
		report.TotalSeconds, len(report.History), report.TunerOverhead.Round(1000))
	fmt.Fprintf(stdout, "validation accuracy: %.3f\n", acc)
	return nil
}
