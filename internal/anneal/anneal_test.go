package anneal

import (
	"math/rand"
	"testing"

	"argo/internal/search"
)

func bowl(c search.Config) float64 {
	dn := float64(c.Procs - 6)
	ds := float64(c.SampleCores - 3)
	dt := float64(c.TrainCores - 7)
	return 10 + 0.5*dn*dn + 0.3*ds*ds + 0.2*dt*dt
}

func TestAnnealRespectsBudget(t *testing.T) {
	sp := search.DefaultSpace(64)
	res := search.Run(NewAnnealer(sp, 25, rand.New(rand.NewSource(1))), search.ObjectiveFunc(bowl))
	if res.Evals != 25 || len(res.History) != 25 {
		t.Fatalf("made %d evals, want 25", res.Evals)
	}
}

func TestAnnealZeroBudget(t *testing.T) {
	sp := search.DefaultSpace(64)
	res := search.Run(NewAnnealer(sp, 0, rand.New(rand.NewSource(1))), search.ObjectiveFunc(bowl))
	if res.Evals != 0 {
		t.Fatal("zero budget must not evaluate")
	}
}

func TestAnnealImprovesOverFirstSample(t *testing.T) {
	sp := search.DefaultSpace(112)
	worse := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		res := search.Run(NewAnnealer(sp, 35, rand.New(rand.NewSource(seed))), search.ObjectiveFunc(bowl))
		if res.BestTime > res.History[0].Time {
			t.Fatal("incumbent worse than first sample — impossible")
		}
		if res.BestTime == res.History[0].Time {
			worse++
		}
	}
	if worse > trials/2 {
		t.Fatalf("annealing failed to improve on the initial sample in %d/%d trials", worse, trials)
	}
}

func TestAnnealBestIsHistoryMinimum(t *testing.T) {
	sp := search.DefaultSpace(64)
	res := search.Run(NewAnnealer(sp, 20, rand.New(rand.NewSource(5))), search.ObjectiveFunc(bowl))
	min := res.History[0].Time
	for _, e := range res.History {
		if e.Time < min {
			min = e.Time
		}
	}
	if res.BestTime != min {
		t.Fatalf("BestTime %v != history min %v", res.BestTime, min)
	}
}

// On a smooth bowl, SA with a 5% budget should usually land within 2× of
// the optimum — but with visible run-to-run variance (that variance is
// exactly what Table IV/V report as ±stddev).
func TestAnnealQualityOnBowl(t *testing.T) {
	sp := search.DefaultSpace(112)
	opt := search.Run(search.NewExhaustiveSearcher(sp), search.ObjectiveFunc(bowl)).BestTime
	var qualities []float64
	for seed := int64(0); seed < 10; seed++ {
		res := search.Run(NewAnnealer(sp, 35, rand.New(rand.NewSource(seed))), search.ObjectiveFunc(bowl))
		qualities = append(qualities, opt/res.BestTime)
	}
	var mean float64
	for _, q := range qualities {
		mean += q
	}
	mean /= float64(len(qualities))
	if mean < 0.6 {
		t.Fatalf("mean SA quality %.2f too poor", mean)
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	sp := search.DefaultSpace(64)
	a := search.Run(NewAnnealer(sp, 15, rand.New(rand.NewSource(9))), search.ObjectiveFunc(bowl))
	b := search.Run(NewAnnealer(sp, 15, rand.New(rand.NewSource(9))), search.ObjectiveFunc(bowl))
	if a.Best != b.Best || a.BestTime != b.BestTime {
		t.Fatal("same seed must reproduce the same search")
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatal("histories differ")
		}
	}
}
