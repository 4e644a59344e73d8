package experiments

import (
	"fmt"
	"io"
	"math"

	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/search"
	"argo/internal/tablefmt"
)

// HeatmapData is one (processes × sampling-cores) epoch-time surface at a
// fixed training-core count — one panel of the paper's Fig. 7 (and, for
// the Reddit setup, Fig. 12).
type HeatmapData struct {
	Setup   Setup
	TrainC  int
	Procs   []int
	Samples []int
	// Seconds[i][j] is the epoch time at Procs[i], Samples[j]; +Inf marks
	// infeasible corners.
	Seconds [][]float64
	Best    search.Config
	BestSec float64
}

// Heatmap sweeps the (n, s) plane at fixed t for any setup — the primitive
// behind Fig. 7 and Fig. 12.
func Heatmap(setup Setup, trainCores int) (HeatmapData, error) {
	hd := HeatmapData{Setup: setup, TrainC: trainCores, BestSec: math.Inf(1)}
	sc := setup.Scenario()
	obj := platsim.NewObjective(sc)
	for n := 1; n <= 8; n++ {
		hd.Procs = append(hd.Procs, n)
	}
	for s := 1; s <= 10; s++ {
		hd.Samples = append(hd.Samples, s)
	}
	for _, n := range hd.Procs {
		row := make([]float64, 0, len(hd.Samples))
		for _, s := range hd.Samples {
			cfg := search.Config{Procs: n, SampleCores: s, TrainCores: trainCores}
			v := math.Inf(1)
			if cfg.TotalCores() <= setup.Plat.TotalCores() {
				v = obj.Evaluate(cfg)
			}
			if v < hd.BestSec {
				hd.Best, hd.BestSec = cfg, v
			}
			row = append(row, v)
		}
		hd.Seconds = append(hd.Seconds, row)
	}
	return hd, nil
}

// Render writes the heatmap as a text grid.
func (hd HeatmapData) Render(w io.Writer, title string) {
	tb := tablefmt.New(title, append([]string{"n\\s"}, intHeaders(hd.Samples)...)...)
	for i, n := range hd.Procs {
		row := []string{fmt.Sprint(n)}
		for _, v := range hd.Seconds[i] {
			if math.IsInf(v, 1) {
				row = append(row, "-")
			} else {
				row = append(row, tablefmt.F(v))
			}
		}
		tb.Add(row...)
	}
	io.WriteString(w, tb.String())
	fmt.Fprintf(w, "optimum: %s at %.3fs (t=%d fixed)\n\n", hd.Best, hd.BestSec, hd.TrainC)
}

func intHeaders(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// Fig7 reproduces Fig. 7: the epoch-time landscape across six setups
// (sampler-model × dataset × platform), showing that the optimal
// configuration varies with every factor, which is why a per-setup online
// tuner is needed.
func Fig7(w io.Writer) ([]HeatmapData, error) {
	panels := []Setup{
		{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: "ogbn-products"},
		{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: "reddit"},
		{Lib: platsim.DGL, Plat: platform.SapphireRapids2S, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: "ogbn-products"},
		{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "reddit"},
		{Lib: platsim.DGL, Plat: platform.SapphireRapids2S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "ogbn-products"},
		{Lib: platsim.DGL, Plat: platform.SapphireRapids2S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "reddit"},
	}
	fmt.Fprintln(w, "== Fig 7: epoch time (s) across setups; x = sampling cores per process, y = processes ==")
	var out []HeatmapData
	for _, p := range panels {
		trainC := 6 // fixed for 2-D visualisation, like the paper
		hd, err := Heatmap(p, trainC)
		if err != nil {
			return out, err
		}
		hd.Render(w, fmt.Sprintf("%s / %s / %s", p.SamplerModel(), p.Dataset, p.Plat.Name))
		out = append(out, hd)
	}
	return out, nil
}

// Fig12 reproduces Fig. 12: the full design-space surface for
// Neighbor-SAGE on Reddit (Ice Lake), the example the paper uses to show
// the landscape the auto-tuner navigates.
func Fig12(w io.Writer) (HeatmapData, error) {
	setup := Setup{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: "reddit"}
	hd, err := Heatmap(setup, 6)
	if err != nil {
		return hd, err
	}
	fmt.Fprintln(w, "== Fig 12: design-space surface (Neighbor-SAGE, Reddit, Ice Lake) ==")
	hd.Render(w, "epoch time (s)")
	return hd, nil
}
