package experiments

import (
	"fmt"
	"io"

	"argo/internal/datasets"
	"argo/internal/engine"
	"argo/internal/nn"
	"argo/internal/platform"
	"argo/internal/platsim"
	"argo/internal/sampler"
	"argo/internal/tablefmt"
)

// Fig6Data holds the workload-inflation and bandwidth study (paper
// Fig. 6): as the process count grows, the total sampled workload rises
// (smaller batches share fewer neighbours) while achieved memory
// bandwidth rises and then saturates.
type Fig6Data struct {
	Procs []int
	// Simulated at paper scale:
	SimEdges []float64
	SimBWGBs []float64
	// Measured by one epoch of the real engine on the scaled dataset:
	RealInputNodes []int64
	RealEdges      []int64
}

// Fig6 reproduces Fig. 6 twice over: analytically at paper scale on the
// simulator, and empirically from one training epoch of the real engine
// on the scaled ogbn-products instance, whose global batches of 256 it
// splits n ways.
func Fig6(w io.Writer) (Fig6Data, error) {
	data := Fig6Data{Procs: []int{1, 2, 4, 8, 16}}

	// Simulator at paper scale.
	setup := Setup{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: "ogbn-products"}
	sc := setup.Scenario()
	for _, n := range data.Procs {
		perProc := 112 / n
		s := perProc / 4
		if s < 1 {
			s = 1
		}
		m, err := platsim.Simulate(sc, platsim.SimConfig{
			Procs: n, SampleCores: s, TrainCores: perProc - s, MaxIters: 30,
		})
		if err != nil {
			return data, err
		}
		data.SimEdges = append(data.SimEdges, m.SampledEdges)
		data.SimBWGBs = append(data.SimBWGBs, m.AvgBandwidthGBs)
	}

	// One epoch of the real engine on the scaled instance, per n.
	ds, err := datasets.Build("ogbn-products", 1)
	if err != nil {
		return data, err
	}
	ns := sampler.NewNeighbor(ds.Graph, []int{15, 10, 5})
	model := nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 7}
	for _, n := range data.Procs {
		e, err := engine.New(engine.Config{
			Dataset: ds, Sampler: ns, Model: model, BatchSize: 256, LR: 0.01,
			NumProcs: n, SampleWorkers: 1, TrainWorkers: 1, Seed: 7,
		})
		if err != nil {
			return data, err
		}
		res, err := e.RunEpoch(0)
		if err != nil {
			return data, err
		}
		data.RealInputNodes = append(data.RealInputNodes, res.Stats.InputNodes)
		data.RealEdges = append(data.RealEdges, res.Stats.SampledEdges)
	}

	tb := tablefmt.New("Fig 6: workload and bandwidth vs number of processes (Neighbor-SAGE, ogbn-products)",
		"processes", "sim edges/epoch", "sim bandwidth GB/s", "real edges/epoch (scaled)", "real input nodes (scaled)")
	for i, n := range data.Procs {
		tb.Addf(n, fmt.Sprintf("%.3g", data.SimEdges[i]), data.SimBWGBs[i],
			fmt.Sprint(data.RealEdges[i]), fmt.Sprint(data.RealInputNodes[i]))
	}
	_, err = io.WriteString(w, tb.String())
	return data, err
}
