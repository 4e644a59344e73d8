package platsim

import (
	"math"
	"testing"

	"argo/internal/datasets"
	"argo/internal/platform"
)

func scenarioFor(t testing.TB, lib Profile, plat platform.Spec, sampler SamplerKind, model ModelKind, dataset string) Scenario {
	t.Helper()
	p, err := datasets.Get(dataset)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{Platform: plat, Library: lib, Sampler: sampler, Model: model, Dataset: p.Spec}
}

func TestIterationsPerEpoch(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	// products: 2,449,029 × 0.1 train frac = 244,902 targets at batch 1024.
	want := (244902 + 1023) / 1024
	if got := sc.IterationsPerEpoch(); got != want {
		t.Fatalf("IterationsPerEpoch = %d, want %d", got, want)
	}
	// Iterations are independent of the process count by construction.
	sc.BatchSize = 512
	if got := sc.IterationsPerEpoch(); got != (244902+511)/512 {
		t.Fatalf("custom batch iterations = %d", got)
	}
}

func TestBatchDefaults(t *testing.T) {
	ns := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	sh := scenarioFor(t, DGL, platform.IceLake4S, Shadow, GCN, "flickr")
	if ns.batch() != DefaultNeighborBatch || sh.batch() != DefaultShadowBatch {
		t.Fatal("sampler batch defaults wrong")
	}
}

// The Fig. 5/6 workload-inflation property: total sampled edges across all
// processes grow monotonically with the process count, while per-process
// work shrinks.
func TestWorkloadInflation(t *testing.T) {
	for _, sampler := range []SamplerKind{Neighbor, Shadow} {
		sc := scenarioFor(t, DGL, platform.IceLake4S, sampler, SAGE, "ogbn-products")
		prevTotal := 0.0
		prevPer := math.Inf(1)
		for _, n := range []int{1, 2, 4, 8, 16} {
			w := sc.PerProcessWork(n)
			total := w.SampledEdges * float64(n)
			if total < prevTotal {
				t.Fatalf("%s: total edges decreased at n=%d: %g < %g", sampler, n, total, prevTotal)
			}
			if w.SampledEdges >= prevPer {
				t.Fatalf("%s: per-process edges did not shrink at n=%d", sampler, n)
			}
			prevTotal, prevPer = total, w.SampledEdges
		}
		// Inflation must be material but bounded (paper Fig. 6 shows
		// ~10–25% from 1 to 16 processes; ShaDow inflates less since its
		// per-target subgraphs overlap little across a batch).
		w1 := sc.PerProcessWork(1).SampledEdges
		w16 := sc.PerProcessWork(16).SampledEdges * 16
		ratio := w16 / w1
		if ratio < 1.01 || ratio > 2.5 {
			t.Fatalf("%s: inflation ratio %g outside plausible band", sampler, ratio)
		}
	}
}

func TestPerProcessWorkPositive(t *testing.T) {
	for _, sampler := range []SamplerKind{Neighbor, Shadow} {
		for _, dataset := range []string{"flickr", "reddit", "ogbn-products", "ogbn-papers100M"} {
			sc := scenarioFor(t, PyG, platform.SapphireRapids2S, sampler, GCN, dataset)
			w := sc.PerProcessWork(4)
			for name, v := range map[string]float64{
				"SampleCore": w.SampleCore, "SampleBytes": w.SampleBytes,
				"GatherBytes": w.GatherBytes, "AggCore": w.AggCore,
				"AggBytes": w.AggBytes, "DenseCore": w.DenseCore,
				"BackCore": w.BackCore, "BackBytes": w.BackBytes,
				"SampledEdges": w.SampledEdges, "InputNodes": w.InputNodes,
			} {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s: %s = %g", sampler, dataset, name, v)
				}
			}
		}
	}
}

// GraphSAGE concatenation doubles the dense-layer input width.
func TestSAGEDoublesDenseWork(t *testing.T) {
	sage := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	gcn := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, GCN, "ogbn-products")
	ws, wg := sage.PerProcessWork(2), gcn.PerProcessWork(2)
	if ws.DenseCore <= wg.DenseCore*1.5 {
		t.Fatalf("SAGE dense %g not ≈2× GCN dense %g", ws.DenseCore, wg.DenseCore)
	}
	if ws.AggBytes != wg.AggBytes {
		t.Fatal("aggregation traffic should not depend on the model kind")
	}
}

// Datasets must order by scale: papers100M ≫ products ≫ reddit-level work.
func TestDatasetScaleOrdering(t *testing.T) {
	papers := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-papers100M")
	flickr := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	if papers.TrainTargets() <= flickr.TrainTargets() {
		t.Fatal("papers100M must have more training targets than flickr")
	}
	wp := papers.PerProcessWork(1)
	wf := flickr.PerProcessWork(1)
	if wp.GatherBytes <= wf.GatherBytes {
		t.Fatal("papers100M per-iteration traffic should exceed flickr")
	}
}

func TestSyncSeconds(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	if sc.SyncSeconds(1) != 0 {
		t.Fatal("single process must not pay sync cost")
	}
	prev := 0.0
	for n := 2; n <= 8; n++ {
		s := sc.SyncSeconds(n)
		if s <= prev {
			t.Fatalf("sync cost must grow with n: %g at n=%d", s, n)
		}
		prev = s
	}
	if prev > 0.1 {
		t.Fatalf("sync cost %gs implausibly large", prev)
	}
}

func TestEffFanout(t *testing.T) {
	// Degree far above fanout: nearly the full fanout is sampled.
	if f := effFanout(10, 1000); f < 9.99 {
		t.Fatalf("effFanout(10, 1000) = %g", f)
	}
	// Degree far below fanout: roughly the degree is sampled.
	if f := effFanout(100, 2); f < 1.5 || f > 2.5 {
		t.Fatalf("effFanout(100, 2) = %g", f)
	}
	// Monotone in degree.
	if effFanout(10, 5) >= effFanout(10, 50) {
		t.Fatal("effFanout must grow with degree")
	}
}

func TestDedup(t *testing.T) {
	if d := dedup(100, 0); d != 100 {
		t.Fatal("zero pool disables dedup")
	}
	// Few draws from a large pool: nearly all distinct.
	if d := dedup(10, 1e9); d < 9.99 {
		t.Fatalf("dedup(10, 1e9) = %g", d)
	}
	// Many draws saturate at the pool size.
	if d := dedup(1e12, 1000); d > 1000 {
		t.Fatalf("dedup must stay below the pool: %g", d)
	}
	// Monotone in draws.
	if dedup(100, 500) >= dedup(200, 500) {
		t.Fatal("dedup must be monotone in draws")
	}
}

func TestUnknownSamplerPanics(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	sc.Sampler = "bogus"
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sc.PerProcessWork(1)
}

func TestScenarioString(t *testing.T) {
	sc := scenarioFor(t, DGL, platform.IceLake4S, Neighbor, SAGE, "flickr")
	want := "DGL/neighbor-sage/flickr/Ice Lake 8380H (4S)"
	if got := sc.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
