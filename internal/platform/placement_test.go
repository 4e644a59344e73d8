package platform_test

import (
	"testing"

	"argo/internal/datasets"
	"argo/internal/platform"
	"argo/internal/platsim"
)

// Core placement on a Spec: every process is bound socket-contiguously,
// and the simulator reports how many sockets the layout covers. These
// check that placement through platsim.Simulate, its one consumer.

func simulate(t *testing.T, spec platform.Spec, procs, k int) (platsim.Metrics, error) {
	t.Helper()
	p, err := datasets.Get("flickr")
	if err != nil {
		t.Fatal(err)
	}
	sc := platsim.Scenario{Platform: spec, Library: platsim.DGL, Sampler: platsim.Neighbor, Model: platsim.SAGE, Dataset: p.Spec}
	// k cores per process: one sampling core, the rest training.
	return platsim.Simulate(sc, platsim.SimConfig{Procs: procs, SampleCores: 1, TrainCores: k - 1, MaxIters: 5})
}

func socketsUsed(t *testing.T, spec platform.Spec, procs, k int) int {
	t.Helper()
	m, err := simulate(t, spec, procs, k)
	if err != nil {
		t.Fatal(err)
	}
	return m.SocketsUsed
}

func TestAllocatorContiguousSingleSocket(t *testing.T) {
	if got := socketsUsed(t, platform.IceLake4S, 1, 8); got != 1 {
		t.Fatalf("8-core process spans %d sockets", got)
	}
}

func TestAllocatorPrefersEmptySockets(t *testing.T) {
	// 30 won't fit in socket 0's remaining 2 cores; the second process
	// must land on socket 1.
	if got := socketsUsed(t, platform.SapphireRapids2S, 2, 30); got != 2 {
		t.Fatalf("2×30 cores span %d sockets, want 2", got)
	}
	// Four 20-core processes take one socket each instead of packing the
	// 80 cores into the first three sockets.
	if got := socketsUsed(t, platform.IceLake4S, 4, 20); got != 4 {
		t.Fatalf("4×20 cores span %d sockets, want 4", got)
	}
}

func TestAllocatorExhaustionAndRelease(t *testing.T) {
	if _, err := simulate(t, platform.SapphireRapids2S, 2, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := simulate(t, platform.SapphireRapids2S, 5, 13); err == nil {
		t.Fatal("over-allocation (65 > 64 cores) must fail")
	}
	// A placement lasts one simulation: the whole machine is free again.
	if got := socketsUsed(t, platform.SapphireRapids2S, 2, 32); got != 2 {
		t.Fatalf("full machine after a refused layout spans %d sockets, want 2", got)
	}
}

func TestAllocateZeroFails(t *testing.T) {
	sc := platsim.Scenario{Platform: platform.IceLake4S, Library: platsim.DGL, Sampler: platsim.Neighbor, Model: platsim.SAGE}
	if _, err := platsim.Simulate(sc, platsim.SimConfig{Procs: 1}); err == nil {
		t.Fatal("zero allocation must fail")
	}
}

func TestAllocatorSpansSocketsWhenNeeded(t *testing.T) {
	// More than one socket's 32.
	if got := socketsUsed(t, platform.SapphireRapids2S, 1, 40); got != 2 {
		t.Fatalf("40-core process spans %d sockets, want 2", got)
	}
}
