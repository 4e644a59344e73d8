package experiments

import (
	"fmt"
	"io"

	"argo/internal/bayesopt"
	"argo/internal/platsim"
	"argo/internal/search"
	"argo/internal/tablefmt"
)

// totalEpochs is the end-to-end training length the paper measures
// (§VI-E: 200 epochs, enough for every task to converge).
const totalEpochs = 200

// EndToEndRow is one bar pair of Fig. 10/11: total training time of the
// stock library versus ARGO (auto-tuning overhead included).
type EndToEndRow struct {
	Platform     string
	SamplerModel string
	Dataset      string

	BaselineSec float64
	ARGOSec     float64
	Speedup     float64
	BestConfig  search.Config
}

// EndToEndData holds one full figure.
type EndToEndData struct {
	Library string
	Rows    []EndToEndRow
}

// Fig10 reproduces Fig. 10: 200-epoch end-to-end training time, DGL vs
// ARGO, across 4 datasets × 2 sampler-models × 2 platforms.
func Fig10(w io.Writer) (EndToEndData, error) { return endToEnd(w, platsim.DGL, "Fig 10") }

// Fig11 reproduces Fig. 11 for PyG.
func Fig11(w io.Writer) (EndToEndData, error) { return endToEnd(w, platsim.PyG, "Fig 11") }

func endToEnd(w io.Writer, lib platsim.Profile, title string) (EndToEndData, error) {
	data := EndToEndData{Library: lib.Name}
	tb := tablefmt.New(fmt.Sprintf("%s: overall training time (s) of %s vs ARGO, %d epochs", title, lib.Name, totalEpochs),
		"dataset", "sampler-model", "platform", lib.Name, "ARGO", "speedup", "found config")
	for _, dataset := range paperDatasets {
		for _, sm := range samplerModels {
			for _, plat := range platforms {
				setup := Setup{Lib: lib, Plat: plat, Sampler: sm.Sampler, Model: sm.Model, Dataset: dataset}
				row, err := endToEndRow(setup)
				if err != nil {
					return data, err
				}
				data.Rows = append(data.Rows, row)
				tb.Add(dataset, row.SamplerModel, plat.Name,
					tablefmt.F(row.BaselineSec), tablefmt.F(row.ARGOSec),
					tablefmt.Ratio(row.Speedup), row.BestConfig.String())
			}
		}
	}
	_, err := io.WriteString(w, tb.String())
	return data, err
}

// endToEndRow measures one bar pair. The ARGO time charges every
// search-phase epoch at the cost of the configuration it actually probed
// (including bad ones) plus the measured surrogate-fitting overhead —
// exactly the accounting the paper uses (§VI-E).
func endToEndRow(setup Setup) (EndToEndRow, error) {
	sc := setup.Scenario()
	row := EndToEndRow{
		Platform:     setup.Plat.Name,
		SamplerModel: setup.SamplerModel(),
		Dataset:      setup.Dataset,
	}
	base, err := platsim.BaselineEpoch(sc, setup.Plat.TotalCores())
	if err != nil {
		return row, err
	}
	row.BaselineSec = base * totalEpochs

	budget := searchBudget(setup.Plat, setup.Sampler)
	sp := search.DefaultSpace(setup.Plat.TotalCores())
	obj := platsim.NewObjective(sc)
	obj.NoiseFrac = epochNoise
	obj.NoiseSeed = 1
	res := search.Run(bayesopt.NewTuner(sp, budget, 1), obj)
	for _, ev := range res.History {
		row.ARGOSec += ev.Time
	}
	clean := platsim.NewObjective(sc)
	bestTime := clean.Evaluate(res.Best)
	row.BestConfig = res.Best
	row.ARGOSec += bestTime * float64(totalEpochs-budget)
	row.ARGOSec += res.Overhead.Seconds()
	row.Speedup = row.BaselineSec / row.ARGOSec
	return row, nil
}
