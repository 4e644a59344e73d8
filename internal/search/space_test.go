package search

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultSpaceSizesMatchDesign(t *testing.T) {
	// 766 configs at 112 cores, 563 at 64 — same order as
	// the paper's 726 and 408.
	if n := DefaultSpace(112).Size(); n != 766 {
		t.Fatalf("112-core space has %d configs, want 766", n)
	}
	if n := DefaultSpace(64).Size(); n != 563 {
		t.Fatalf("64-core space has %d configs, want 563", n)
	}
}

func TestFeasible(t *testing.T) {
	sp := DefaultSpace(64)
	cases := []struct {
		c    Config
		want bool
	}{
		{Config{2, 1, 1}, true},
		{Config{8, 4, 4}, true},  // 64 cores exactly
		{Config{8, 4, 5}, false}, // 72 > 64
		{Config{1, 1, 1}, true},  // n=1: core-binding only
		{Config{0, 1, 1}, false},
		{Config{9, 1, 1}, false},
		{Config{2, 0, 1}, false},
		{Config{2, 11, 1}, false},
		{Config{2, 1, 11}, false},
	}
	for _, tc := range cases {
		if got := sp.Feasible(tc.c); got != tc.want {
			t.Fatalf("Feasible(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestEnumerateAllFeasibleAndUnique(t *testing.T) {
	sp := DefaultSpace(64)
	seen := map[Config]bool{}
	for _, c := range sp.Enumerate() {
		if !sp.Feasible(c) {
			t.Fatalf("enumerated infeasible %v", c)
		}
		if seen[c] {
			t.Fatalf("duplicate %v", c)
		}
		seen[c] = true
	}
}

func TestRandomIsFeasible(t *testing.T) {
	sp := DefaultSpace(112)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if c := sp.Random(rng); !sp.Feasible(c) {
			t.Fatalf("Random produced infeasible %v", c)
		}
	}
}

// Property: neighbours are feasible, distinct from the origin, and differ
// in exactly one dimension by one.
func TestQuickNeighbors(t *testing.T) {
	sp := DefaultSpace(64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := sp.Random(rng)
		for _, nb := range sp.Neighbors(c) {
			if !sp.Feasible(nb) || nb == c {
				return false
			}
			d := abs(nb.Procs-c.Procs) + abs(nb.SampleCores-c.SampleCores) + abs(nb.TrainCores-c.TrainCores)
			if d != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// bowl is a smooth test objective with its optimum inside the space.
func bowl(c Config) float64 {
	dn := float64(c.Procs - 6)
	ds := float64(c.SampleCores - 3)
	dt := float64(c.TrainCores - 7)
	return 10 + 0.5*dn*dn + 0.3*ds*ds + 0.2*dt*dt
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	sp := DefaultSpace(112)
	res := Run(NewExhaustiveSearcher(sp), ObjectiveFunc(bowl))
	if res.Evals != sp.Size() {
		t.Fatalf("exhaustive made %d evals, want %d", res.Evals, sp.Size())
	}
	want := Config{Procs: 6, SampleCores: 3, TrainCores: 7}
	if res.Best != want {
		t.Fatalf("best = %v, want %v", res.Best, want)
	}
	if res.BestTime != 10 {
		t.Fatalf("best time = %v, want 10", res.BestTime)
	}
}

func TestRandomSearchBudgetAndIncumbent(t *testing.T) {
	sp := DefaultSpace(64)
	res := Run(NewRandomSearcher(sp, 30, rand.New(rand.NewSource(3))), ObjectiveFunc(bowl))
	if res.Evals != 30 || len(res.History) != 30 {
		t.Fatalf("random search made %d evals", res.Evals)
	}
	for _, e := range res.History {
		if e.Time < res.BestTime {
			t.Fatal("incumbent is not the minimum of the history")
		}
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{4, 2, 8}).String(); s != "n=4 s=2 t=8" {
		t.Fatalf("String() = %q", s)
	}
	if (Config{4, 2, 8}).TotalCores() != 40 {
		t.Fatal("TotalCores wrong")
	}
}
