package platsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"argo/internal/platform"
	"argo/internal/search"
	"argo/internal/trace"
)

func TestSimulateValidation(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	bad := []SimConfig{
		{Procs: 0, SampleCores: 1, TrainCores: 1},
		{Procs: 1, SampleCores: 0, TrainCores: 1},
		{Procs: 1, SampleCores: 1, TrainCores: 0},
		{Procs: 8, SampleCores: 10, TrainCores: 10}, // 160 > 112 cores
	}
	for i, cfg := range bad {
		if _, err := Simulate(sc, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	cfg := SimConfig{Procs: 4, SampleCores: 2, TrainCores: 8, MaxIters: 20}
	a, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EpochSeconds != b.EpochSeconds || a.AvgBandwidthGBs != b.AvgBandwidthGBs {
		t.Fatal("simulator must be deterministic")
	}
}

// The steady-state extrapolation must track the full simulation closely.
func TestExtrapolationMatchesFullSim(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.SapphireRapids2S, Neighbor, SAGE, "flickr")
	// flickr: 44625·0.5/1024 ≈ 22 iterations — small enough to run fully.
	full, err := Simulate(sc, SimConfig{Procs: 4, SampleCores: 2, TrainCores: 6})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := Simulate(sc, SimConfig{Procs: 4, SampleCores: 2, TrainCores: 6, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(extra.EpochSeconds-full.EpochSeconds) / full.EpochSeconds
	if rel > 0.05 {
		t.Fatalf("extrapolated %.4f vs full %.4f (%.1f%% off)", extra.EpochSeconds, full.EpochSeconds, rel*100)
	}
}

// Fig. 1: the single-process library baseline must flatten — going from 16
// cores to the full machine buys little, while 4→16 helps substantially.
func TestBaselineFlattensAt16Cores(t *testing.T) {
	for _, lib := range []Profile{DGL, PyG} {
		sc := scenarioFor(t, lib, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
		e4, err := BaselineEpoch(sc, 4)
		if err != nil {
			t.Fatal(err)
		}
		e16, err := BaselineEpoch(sc, 16)
		if err != nil {
			t.Fatal(err)
		}
		e112, err := BaselineEpoch(sc, 112)
		if err != nil {
			t.Fatal(err)
		}
		if s := e4 / e16; s < 1.4 || s > 3.5 {
			t.Fatalf("%s: 4→16 core speedup %.2f outside [1.4, 3.5]", lib.Name, s)
		}
		if s := e16 / e112; s > 1.45 {
			t.Fatalf("%s: 16→112 cores still speeds up %.2f× — baseline must flatten", lib.Name, s)
		}
	}
}

// Fig. 8: ARGO configurations keep scaling past 16 cores and beat the
// library default at full machine size.
func TestARGOScalesPastBaseline(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	_, argo16 := BestWithBudget(sc, 16)
	_, argo64 := BestWithBudget(sc, 64)
	_, argo112 := BestWithBudget(sc, 112)
	if argo64 >= argo16 {
		t.Fatal("ARGO must keep improving from 16 to 64 cores")
	}
	// Past 64 cores the UPI bottleneck flattens the curve (paper §IX).
	if gain := argo64 / argo112; gain > 1.25 {
		t.Fatalf("64→112 ARGO gain %.2f should be modest (UPI-bound)", gain)
	}
	def, err := BaselineEpoch(sc, 112)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := def / argo112; speedup < 1.3 || speedup > 6 {
		t.Fatalf("ARGO speedup over default %.2f outside the paper's band", speedup)
	}
}

// ShaDow's poorly-parallelised sampler makes ARGO's speedup larger than
// for Neighbor sampling (the paper's headline asymmetry).
func TestShadowBenefitsMoreThanNeighbor(t *testing.T) {
	for _, plat := range []platform.Spec{platform.IceLake4S, platform.SapphireRapids2S} {
		cores := plat.TotalCores()
		nsSpeedup := func(lib Profile) float64 {
			sc := scenarioFor(t, lib, plat, Neighbor, SAGE, "ogbn-products")
			def, err := BaselineEpoch(sc, cores)
			if err != nil {
				t.Fatal(err)
			}
			_, best := BestWithBudget(sc, cores)
			return def / best
		}
		shSpeedup := func(lib Profile) float64 {
			sc := scenarioFor(t, lib, plat, Shadow, GCN, "ogbn-products")
			def, err := BaselineEpoch(sc, cores)
			if err != nil {
				t.Fatal(err)
			}
			_, best := BestWithBudget(sc, cores)
			return def / best
		}
		for _, lib := range []Profile{DGL, PyG} {
			ns, sh := nsSpeedup(lib), shSpeedup(lib)
			if sh <= ns {
				t.Fatalf("%s on %s: ShaDow speedup %.2f not above Neighbor %.2f", lib.Name, plat.Name, sh, ns)
			}
		}
	}
}

// Fig. 6: achieved bandwidth grows with the process count and then
// flattens, while the sampled workload keeps growing.
func TestBandwidthGrowsAndSaturates(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	var bw []float64
	for _, n := range []int{1, 2, 4, 8} {
		st := 112 / n
		s := st / 4
		if s < 1 {
			s = 1
		}
		m, err := Simulate(sc, SimConfig{Procs: n, SampleCores: s, TrainCores: st - s, MaxIters: 30})
		if err != nil {
			t.Fatal(err)
		}
		bw = append(bw, m.AvgBandwidthGBs)
	}
	if bw[1] < bw[0]*1.3 {
		t.Fatalf("bandwidth must grow substantially 1→2 processes: %v", bw)
	}
	// Flattening: the 4→8 step is much smaller than the 1→2 step.
	if (bw[3]-bw[2])/bw[2] > 0.5*(bw[1]-bw[0])/bw[0] {
		t.Fatalf("bandwidth did not saturate: %v", bw)
	}
	if bw[3] > sc.Platform.PeakBWGBs {
		t.Fatalf("achieved bandwidth %v exceeds platform peak", bw[3])
	}
}

// Fig. 2: with two processes, memory-intensive phases overlap the other
// process's compute, so the memory system is busy a larger fraction of
// the time than with one process.
func TestTraceMemoryOverlap(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	busy := func(n int) float64 {
		tl := &trace.Timeline{}
		_, err := Simulate(sc, SimConfig{Procs: n, SampleCores: 2, TrainCores: 12, MaxIters: 6, Trace: tl})
		if err != nil {
			t.Fatal(err)
		}
		return tl.BusyFraction(trace.MemoryPhases)
	}
	if b1, b2 := busy(1), busy(2); b2 <= b1 {
		t.Fatalf("memory busy fraction must rise with 2 processes: %v vs %v", b1, b2)
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.SapphireRapids2S, Shadow, GCN, "flickr")
	tl := &trace.Timeline{}
	m, err := Simulate(sc, SimConfig{Procs: 2, SampleCores: 2, TrainCores: 4, MaxIters: 4, Trace: tl})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	phases := map[string]bool{}
	for _, e := range tl.Events {
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.Proc < 0 || e.Proc >= 2 {
			t.Fatalf("bad process id: %+v", e)
		}
		phases[e.Phase] = true
	}
	for _, want := range []string{"sample", "gather", "aggregate", "dense", "backward", "sync"} {
		if !phases[want] {
			t.Fatalf("phase %q missing from trace", want)
		}
	}
	if m.EpochSeconds <= 0 {
		t.Fatal("epoch must take time")
	}
}

// Over-allocating cores to one stage is not free: the landscape is a bowl
// in s (paper §V-A2) — at least, more sampling cores beyond the knee stop
// helping.
func TestSamplingCoresDiminishingReturns(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Shadow, GCN, "ogbn-products")
	// n=2, t=4 keeps every configuration within one socket (≤28 cores) so
	// the s sweep isolates sampler parallelism from NUMA bandwidth steps.
	at := func(s int) float64 {
		m, err := Simulate(sc, SimConfig{Procs: 2, SampleCores: s, TrainCores: 4, MaxIters: 20})
		if err != nil {
			t.Fatal(err)
		}
		return m.EpochSeconds
	}
	e1, e4, e10 := at(1), at(4), at(10)
	if e4 >= e1 {
		t.Fatal("going 1→4 sampling cores must help the ShaDow sampler")
	}
	// With serial fraction 0.7, the marginal gain 4→10 must be small.
	if gain := e4 / e10; gain > 1.15 {
		t.Fatalf("4→10 sampling cores still gains %.2f× — should be saturated", gain)
	}
}

func TestSocketsUsedReported(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	m, err := Simulate(sc, SimConfig{Procs: 8, SampleCores: 4, TrainCores: 10, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.SocketsUsed != 4 {
		t.Fatalf("112 cores must span 4 sockets, got %d", m.SocketsUsed)
	}
	m2, err := Simulate(sc, SimConfig{Procs: 1, SampleCores: 2, TrainCores: 6, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m2.SocketsUsed != 1 {
		t.Fatalf("8 cores must fit one socket, got %d", m2.SocketsUsed)
	}
}

// Socket-contiguous binding: each process fills the first socket with
// room for it, and spills over the sockets in order only when none has.
func TestSocketsSpanned(t *testing.T) {
	cases := []struct {
		spec        platform.Spec
		procs, k    int
		wantSockets int
	}{
		{platform.IceLake4S, 1, 8, 1},
		{platform.SapphireRapids2S, 2, 30, 2}, // the second 30 skips socket 0's last 2 cores
		{platform.SapphireRapids2S, 1, 40, 2}, // more than one socket's 32
		{platform.IceLake4S, 8, 14, 4},
		// Four processes leave 8 cores free on every socket, so the fifth
		// finds no socket with 20 free and spills over three of them.
		{platform.IceLake4S, 5, 20, 4},
	}
	for _, c := range cases {
		if got := socketsSpanned(c.spec, c.procs, c.k); got != c.wantSockets {
			t.Errorf("%s, %d×%d cores: %d sockets, want %d", c.spec.Name, c.procs, c.k, got, c.wantSockets)
		}
	}
}

// Property: for any feasible layout, the simulated epoch is positive and
// finite, achieved bandwidth never exceeds the platform peak, and the
// iteration count matches the scenario.
func TestQuickSimulateInvariants(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	sp := search.DefaultSpace(112)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := sp.Random(rng)
		m, err := Simulate(sc, SimConfig{Procs: c.Procs, SampleCores: c.SampleCores, TrainCores: c.TrainCores, MaxIters: 15})
		if err != nil {
			return false
		}
		if m.EpochSeconds <= 0 || math.IsInf(m.EpochSeconds, 0) || math.IsNaN(m.EpochSeconds) {
			return false
		}
		if m.AvgBandwidthGBs > sc.Platform.PeakBWGBs || m.AvgBandwidthGBs <= 0 {
			return false
		}
		return m.Iterations == sc.IterationsPerEpoch()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the epoch time is monotone in the workload — doubling the
// batch size cannot make the epoch shorter-per-target.
func TestQuickEpochScalesWithWork(t *testing.T) {
	base := scenarioFor(t, DGL, platform.SapphireRapids2S, Neighbor, SAGE, "ogbn-products")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := search.DefaultSpace(64).Random(rng)
		cfg := SimConfig{Procs: c.Procs, SampleCores: c.SampleCores, TrainCores: c.TrainCores, MaxIters: 15}
		small := base
		small.BatchSize = 512
		big := base
		big.BatchSize = 2048
		ms, err1 := Simulate(small, cfg)
		mb, err2 := Simulate(big, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		// Bigger batches mean fewer iterations; per-epoch time must not
		// quadruple, and per-iteration time must grow.
		perIterSmall := ms.EpochSeconds / float64(ms.Iterations)
		perIterBig := mb.EpochSeconds / float64(mb.Iterations)
		return perIterBig > perIterSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
