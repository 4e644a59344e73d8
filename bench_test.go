// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark regenerates its artifact through internal/experiments
// (the same code cmd/argo-bench runs) so `go test -bench=.` exercises the
// full reproduction (see the README's Benchmarks section). The Ablation*
// benchmarks quantify individual design choices.
package argo_test

import (
	"io"
	"math/rand"
	"testing"

	"argo/internal/anneal"
	"argo/internal/bayesopt"
	"argo/internal/datasets"
	"argo/internal/experiments"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/search"
)

func BenchmarkFig1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(data.SingleMemBusy*100, "membusy1proc_%")
			b.ReportMetric(data.DualMemBusy*100, "membusy2proc_%")
		}
	}
}

func BenchmarkFig6Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig6(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(data.Procs) - 1
			b.ReportMetric(data.SimEdges[last]/data.SimEdges[0], "workload_inflation_x")
		}
	}
}

func BenchmarkFig7Landscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig9(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(data.Curves) > 0 {
			c := data.Curves[len(data.Curves)-1] // ARGO:8
			b.ReportMetric(c.Accuracy[len(c.Accuracy)-1], "argo8_final_acc")
		}
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVAutoTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.TableIV(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(worstTunerQuality(data), "worst_tuner_quality")
		}
	}
}

func BenchmarkTableVAutoTuner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.TableV(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(worstTunerQuality(data), "worst_tuner_quality")
		}
	}
}

func worstTunerQuality(data experiments.TableData) float64 {
	worst := 1.0
	for _, r := range data.Rows {
		if q := r.Exhaustive / r.Tuner; q < worst {
			worst = q
		}
	}
	return worst
}

func BenchmarkTableVISpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableVI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TunerOverhead(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSearchStrategies pits the three search strategies
// against each other on one setup with equal budgets.
func BenchmarkAblationSearchStrategies(b *testing.B) {
	p, err := datasets.Get("reddit")
	if err != nil {
		b.Fatal(err)
	}
	sc := platsim.Scenario{
		Platform: platform.SapphireRapids2S, Library: platsim.DGL,
		Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: p.Spec,
	}
	sp := search.DefaultSpace(64)
	obj := platsim.NewObjective(sc)
	const budget = 20
	b.Run("bayesopt", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = search.Run(bayesopt.NewTuner(sp, budget, int64(i)), obj).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
	b.Run("anneal", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = search.Run(anneal.NewAnnealer(sp, budget, rand.New(rand.NewSource(int64(i)))), obj).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
	b.Run("random", func(b *testing.B) {
		var best float64
		for i := 0; i < b.N; i++ {
			best = search.Run(search.NewRandomSearcher(sp, budget, rand.New(rand.NewSource(int64(i)))), obj).BestTime
		}
		b.ReportMetric(best, "found_epoch_s")
	})
}
