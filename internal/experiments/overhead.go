package experiments

import (
	"io"
	"runtime"
	"time"

	"argo/internal/bayesopt"
	"argo/internal/datasets"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/search"
	"argo/internal/tablefmt"
)

// OverheadRow profiles the online auto-tuner on one platform/budget
// combination (paper §VI-D: the overhead depends only on the search-space
// size, not on the model or dataset).
type OverheadRow struct {
	Platform  string
	Budget    int
	SpaceSize int
	Overhead  time.Duration
	AllocMB   float64
}

// TunerOverhead measures the surrogate-fitting and acquisition time and
// the memory footprint of a full online-tuning run per platform.
func TunerOverhead(w io.Writer) ([]OverheadRow, error) {
	var rows []OverheadRow
	p, err := datasets.Get("ogbn-products")
	if err != nil {
		return nil, err
	}
	for _, plat := range []platform.Spec{platform.IceLake4S, platform.SapphireRapids2S} {
		for _, sm := range samplerModels {
			sc := platsim.Scenario{Platform: plat, Library: platsim.DGL, Sampler: sm.Sampler, Model: sm.Model, Dataset: p.Spec}
			sp := search.DefaultSpace(plat.TotalCores())
			budget := searchBudget(plat, sm.Sampler)
			obj := platsim.NewObjective(sc)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := search.Run(bayesopt.NewTuner(sp, budget, 7), obj)
			runtime.ReadMemStats(&after)

			rows = append(rows, OverheadRow{
				Platform:  plat.Name,
				Budget:    budget,
				SpaceSize: sp.Size(),
				Overhead:  res.Overhead,
				AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			})
		}
	}
	tb := tablefmt.New("Auto-tuner overhead (paper §VI-D; larger spaces cost more)",
		"platform", "space", "searches", "tuner time", "allocations MB")
	for _, r := range rows {
		tb.Addf(r.Platform, r.SpaceSize, r.Budget, r.Overhead.String(), r.AllocMB)
	}
	_, err = io.WriteString(w, tb.String())
	return rows, err
}
