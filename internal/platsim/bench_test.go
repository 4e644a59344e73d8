package platsim

import (
	"testing"

	"argo/internal/platform"
	"argo/internal/search"
)

func BenchmarkSimulateEpoch(b *testing.B) {
	sc := scenarioFor(b, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	cfg := SimConfig{Procs: 8, SampleCores: 4, TrainCores: 10, MaxIters: 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveSearch112(b *testing.B) {
	sc := scenarioFor(b, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-products")
	sp := search.DefaultSpace(112)
	for i := 0; i < b.N; i++ {
		obj := NewObjective(sc) // fresh cache: measure the real sweep
		search.Run(search.NewExhaustiveSearcher(sp), obj)
	}
}

func BenchmarkPerProcessWork(b *testing.B) {
	sc := scenarioFor(b, DGL, platform.IceLake4S, Neighbor, SAGE, "ogbn-papers100M")
	for i := 0; i < b.N; i++ {
		sc.PerProcessWork(8)
	}
}
