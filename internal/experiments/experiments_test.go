package experiments

import (
	"io"
	"math"
	"strings"
	"testing"

	"argo/internal/platform"
	"argo/internal/platsim"
)

func TestRegistryNamesAndUnknown(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(Registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() must be sorted")
		}
	}
	if err := Run("nope", io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestSetupScenarioAndLabels(t *testing.T) {
	s := Setup{Lib: platsim.DGL, Plat: platform.IceLake4S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "reddit"}
	if s.SamplerModel() != "ShaDow-GCN" {
		t.Fatalf("SamplerModel = %q", s.SamplerModel())
	}
	sc := s.Scenario()
	if sc.Dataset.Name != "reddit" {
		t.Fatal("scenario dataset wrong")
	}
}

func TestSearchBudgetsMatchTableVI(t *testing.T) {
	cases := []struct {
		plat    platform.Spec
		sampler platsim.SamplerKind
		want    int
	}{
		{platform.IceLake4S, platsim.Neighbor, 35},
		{platform.IceLake4S, platsim.Shadow, 45},
		{platform.SapphireRapids2S, platsim.Neighbor, 20},
		{platform.SapphireRapids2S, platsim.Shadow, 25},
	}
	for _, c := range cases {
		if got := searchBudget(c.plat, c.sampler); got != c.want {
			t.Fatalf("budget(%s, %s) = %d, want %d", c.plat.Name, c.sampler, got, c.want)
		}
	}
}

// Fig 1 shape: both libraries speed up from 4 to 16 cores and flatten
// afterwards.
func TestFig1Shape(t *testing.T) {
	data, err := Fig1(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for lib, s := range data.Speedups {
		if len(s) != len(data.Cores) {
			t.Fatalf("%s: %d points for %d cores", lib, len(s), len(data.Cores))
		}
		if s[0] != 1 {
			t.Fatalf("%s: speedups must be normalized to 4 cores", lib)
		}
		// 16 cores (index 2) clearly above 4 cores.
		if s[2] < 1.4 {
			t.Fatalf("%s: 16-core speedup %.2f too low", lib, s[2])
		}
		// Flattening: full machine adds less than 45%% over 16 cores.
		if s[5]/s[2] > 1.45 {
			t.Fatalf("%s: keeps scaling past 16 cores (%.2f→%.2f)", lib, s[2], s[5])
		}
	}
}

// Fig 2 shape: two processes keep the memory system busier.
func TestFig2Shape(t *testing.T) {
	var buf strings.Builder
	data, err := Fig2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if data.DualMemBusy <= data.SingleMemBusy {
		t.Fatalf("dual busy %.2f not above single %.2f", data.DualMemBusy, data.SingleMemBusy)
	}
	out := buf.String()
	for _, want := range []string{"single process", "two processes", "P0 trainer", "P1 trainer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q", want)
		}
	}
}

// Fig 6 shape: workload grows with processes (both simulated and real),
// bandwidth grows then saturates.
func TestFig6Shape(t *testing.T) {
	data, err := Fig6(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(data.Procs); i++ {
		if data.SimEdges[i] <= data.SimEdges[i-1] {
			t.Fatalf("simulated workload not increasing at n=%d", data.Procs[i])
		}
		if data.RealEdges[i] <= data.RealEdges[i-1] {
			t.Fatalf("real sampled workload not increasing at n=%d", data.Procs[i])
		}
	}
	last := len(data.Procs) - 1
	if data.SimBWGBs[1] <= data.SimBWGBs[0] {
		t.Fatal("bandwidth must grow 1→2 processes")
	}
	growthEarly := data.SimBWGBs[1] / data.SimBWGBs[0]
	growthLate := data.SimBWGBs[last] / data.SimBWGBs[last-1]
	if growthLate > growthEarly {
		t.Fatal("bandwidth growth must taper (saturation)")
	}
}

// Fig 7 shape: optima differ across setups (the paper's argument for
// per-setup tuning), and every panel's optimum is feasible.
func TestFig7Shape(t *testing.T) {
	panels, err := Fig7(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("Fig 7 has %d panels, want 6", len(panels))
	}
	optima := map[string]bool{}
	for _, p := range panels {
		if math.IsInf(p.BestSec, 1) {
			t.Fatal("panel without feasible optimum")
		}
		optima[p.Best.String()] = true
	}
	if len(optima) < 2 {
		t.Fatal("optimal configuration should vary across setups")
	}
}

func TestFig12Shape(t *testing.T) {
	hd, err := Fig12(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(hd.Seconds) != 8 || len(hd.Seconds[0]) != 10 {
		t.Fatalf("surface is %dx%d, want 8x10", len(hd.Seconds), len(hd.Seconds[0]))
	}
}

// Fig 8 shape: ARGO outruns the stock library at full machine scale on
// every panel, and the stock library flattens.
func TestFig8Shape(t *testing.T) {
	data, err := Fig8(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Panels) != 4 {
		t.Fatalf("Fig 8 has %d panels, want 4", len(data.Panels))
	}
	for panel, series := range data.Panels {
		if len(series) != 4 { // 2 sampler-models × (library, ARGO)
			t.Fatalf("%s: %d series", panel, len(series))
		}
		for i := 0; i < len(series); i += 2 {
			lib, argo := series[i], series[i+1]
			last := len(lib.EpochSec) - 1
			if argo.EpochSec[last] >= lib.EpochSec[last] {
				t.Fatalf("%s/%s: ARGO %.2fs not faster than library %.2fs at full scale",
					panel, lib.Label, argo.EpochSec[last], lib.EpochSec[last])
			}
			if argo.Speedup[last] <= lib.Speedup[last] {
				t.Fatalf("%s/%s: ARGO normalized speedup must exceed the library's", panel, lib.Label)
			}
		}
	}
}

// Table VI shape: budgets are 5–6%% of the space.
func TestTableVIShape(t *testing.T) {
	rows, err := TableVI(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table VI has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		frac := float64(r.Budget) / float64(r.SpaceSize)
		if frac < 0.025 || frac > 0.08 {
			t.Fatalf("%s/%s: budget fraction %.3f outside 2.5–8%%", r.Platform, r.SamplerModel, frac)
		}
	}
}

// One Table IV row end-to-end (the full table runs in cmd/argo-bench and
// the benchmarks): the auto-tuner must land within 90%% of exhaustive and
// the default must be sub-optimal.
func TestSearchRowShape(t *testing.T) {
	setup := Setup{Lib: platsim.DGL, Plat: platform.SapphireRapids2S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "ogbn-products"}
	row, err := searchRow(setup)
	if err != nil {
		t.Fatal(err)
	}
	if row.Exhaustive <= 0 {
		t.Fatal("exhaustive time must be positive")
	}
	if q := row.Exhaustive / row.Tuner; q < 0.9 {
		t.Fatalf("auto-tuner quality %.3f below 0.9", q)
	}
	if row.Default <= row.Exhaustive {
		t.Fatal("default must be slower than the exhaustive optimum")
	}
	if row.SAMean < row.Exhaustive {
		t.Fatal("SA cannot beat the exhaustive optimum on the clean objective")
	}
	if row.Budget != 25 {
		t.Fatalf("budget = %d, want 25", row.Budget)
	}
}

// One Fig 10 row: ARGO end-to-end must beat the default for the large
// ShaDow workloads (the paper's headline case).
func TestEndToEndRowShape(t *testing.T) {
	setup := Setup{Lib: platsim.DGL, Plat: platform.SapphireRapids2S, Sampler: platsim.Shadow, Model: platsim.GCN, Dataset: "ogbn-products"}
	row, err := endToEndRow(setup)
	if err != nil {
		t.Fatal(err)
	}
	if row.Speedup < 1.5 {
		t.Fatalf("ShaDow-GCN products end-to-end speedup %.2f too low", row.Speedup)
	}
	if row.ARGOSec <= 0 || row.BaselineSec <= 0 {
		t.Fatal("times must be positive")
	}
}

func TestTunerOverheadExperiment(t *testing.T) {
	rows, err := TunerOverhead(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d overhead rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Overhead <= 0 {
			t.Fatalf("%s: zero tuner overhead", r.Platform)
		}
		if r.Overhead.Seconds() > 30 {
			t.Fatalf("%s: tuner overhead %.1fs implausibly large", r.Platform, r.Overhead.Seconds())
		}
	}
}

func TestPartitionAblation(t *testing.T) {
	rows, err := PartitionAblation(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d partition rows", len(rows))
	}
	random, greedy := rows[0], rows[1]
	if greedy.EdgeCut >= random.EdgeCut {
		t.Fatal("greedy partitioner must reduce the edge cut")
	}
	if greedy.BuildTime <= random.BuildTime {
		t.Fatal("greedy partitioner must cost more time (the §VII-A trade-off)")
	}
}

// Fig 9 (trimmed): multi-process convergence curves track the
// single-process baseline.
func TestFig9CurvesOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("real training loop")
	}
	data, err := fig9(io.Discard, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Curves) != 4 {
		t.Fatalf("%d curves, want 4", len(data.Curves))
	}
	base := data.Curves[0]
	final := base.Accuracy[len(base.Accuracy)-1]
	if final < 0.3 {
		t.Fatalf("baseline accuracy %.3f too low to compare curves", final)
	}
	for _, c := range data.Curves[1:] {
		accN := c.Accuracy[len(c.Accuracy)-1]
		if gap := math.Abs(accN - final); gap > 0.15 {
			t.Fatalf("%s final accuracy %.3f deviates from baseline %.3f", c.Label, accN, final)
		}
	}
}
