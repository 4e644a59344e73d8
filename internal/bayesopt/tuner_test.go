package bayesopt

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/anneal"
	"argo/internal/search"
)

// bowl is the smooth synthetic landscape used across the tuner tests.
func bowl(c search.Config) float64 {
	dn := float64(c.Procs - 6)
	ds := float64(c.SampleCores - 3)
	dt := float64(c.TrainCores - 7)
	return 10 + 0.5*dn*dn + 0.3*ds*ds + 0.2*dt*dt + 0.1*dn*ds
}

// noisyBowl adds deterministic pseudo-noise, mimicking epoch-time jitter.
func noisyBowl(c search.Config) float64 {
	h := c.Procs*73856093 ^ c.SampleCores*19349663 ^ c.TrainCores*83492791
	noise := float64(h%97)/97.0*0.4 - 0.2
	return bowl(c) + noise
}

func TestTunerRespectsBudget(t *testing.T) {
	sp := search.DefaultSpace(112)
	tu := NewTuner(sp, 35, 1)
	res := search.Run(tu, search.ObjectiveFunc(bowl))
	if res.Evals != 35 {
		t.Fatalf("tuner made %d evals, want 35", res.Evals)
	}
	if _, ok := tu.Next(); ok {
		t.Fatal("tuner must stop proposing after the budget")
	}
}

func TestTunerNeverProposesInfeasibleOrDuplicate(t *testing.T) {
	sp := search.DefaultSpace(64)
	tu := NewTuner(sp, 20, 2)
	seen := map[search.Config]bool{}
	for c, ok := tu.Next(); ok; c, ok = tu.Next() {
		if !sp.Feasible(c) {
			t.Fatalf("proposed infeasible %v", c)
		}
		if seen[c] {
			t.Fatalf("proposed duplicate %v", c)
		}
		seen[c] = true
		tu.Observe(c, bowl(c))
	}
}

// The paper's headline tuner claim: with a ~5% budget the tuner finds a
// configuration within 90% of the exhaustive optimum. Verified over
// multiple seeds on both space sizes.
func TestTunerFindsNearOptimal(t *testing.T) {
	for _, tc := range []struct {
		cores, budget int
	}{
		{112, 35},
		{64, 20},
	} {
		sp := search.DefaultSpace(tc.cores)
		opt := search.Run(search.NewExhaustiveSearcher(sp), search.ObjectiveFunc(noisyBowl)).BestTime
		var worst float64 = 1
		for seed := int64(0); seed < 8; seed++ {
			tu := NewTuner(sp, tc.budget, seed)
			res := search.Run(tu, search.ObjectiveFunc(noisyBowl))
			q := opt / res.BestTime
			if q < worst {
				worst = q
			}
		}
		if worst < 0.90 {
			t.Fatalf("%d cores: worst-seed quality %.3f below 0.90", tc.cores, worst)
		}
	}
}

// The tuner must beat simulated annealing on average with equal budgets
// (the Table IV/V comparison).
func TestTunerBeatsAnnealingOnAverage(t *testing.T) {
	sp := search.DefaultSpace(112)
	const budget = 35
	var boSum, saSum float64
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		bo := search.Run(NewTuner(sp, budget, seed), search.ObjectiveFunc(noisyBowl))
		sa := search.Run(anneal.NewAnnealer(sp, budget, rand.New(rand.NewSource(seed))), search.ObjectiveFunc(noisyBowl))
		boSum += bo.BestTime
		saSum += sa.BestTime
	}
	if boSum > saSum {
		t.Fatalf("BO mean best %.3f worse than SA mean best %.3f", boSum/trials, saSum/trials)
	}
}

// The acquisition ablation: random search on the same budget must not
// beat EI by a meaningful margin (and EI should usually win).
func TestRandomAcquisitionAblation(t *testing.T) {
	sp := search.DefaultSpace(112)
	var eiSum, randSum float64
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		ei := NewTuner(sp, 25, seed)
		eiSum += search.Run(ei, search.ObjectiveFunc(noisyBowl)).BestTime
		rn := search.NewRandomSearcher(sp, 25, rand.New(rand.NewSource(seed)))
		randSum += search.Run(rn, search.ObjectiveFunc(noisyBowl)).BestTime
	}
	if eiSum > randSum*1.02 {
		t.Fatalf("EI mean %.3f worse than random acquisition mean %.3f", eiSum/trials, randSum/trials)
	}
}

func TestTunerBestTracksIncumbent(t *testing.T) {
	sp := search.DefaultSpace(64)
	tu := NewTuner(sp, 15, 7)
	res := search.Run(tu, search.ObjectiveFunc(bowl))
	min := math.Inf(1)
	for _, e := range res.History {
		if e.Time < min {
			min = e.Time
		}
	}
	if res.BestTime != min {
		t.Fatalf("BestTime %v != history min %v", res.BestTime, min)
	}
}

func TestTunerDeterministicForSeed(t *testing.T) {
	sp := search.DefaultSpace(64)
	a := search.Run(NewTuner(sp, 12, 3), search.ObjectiveFunc(bowl))
	b := search.Run(NewTuner(sp, 12, 3), search.ObjectiveFunc(bowl))
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatal("same seed must reproduce proposals")
		}
	}
}

func TestTunerOverheadTracked(t *testing.T) {
	sp := search.DefaultSpace(64)
	tu := NewTuner(sp, 10, 4)
	res := search.Run(tu, search.ObjectiveFunc(bowl))
	if res.Overhead <= 0 {
		t.Fatal("overhead must be measured")
	}
	if res.Evals != 10 {
		t.Fatalf("Evals = %d", res.Evals)
	}
}

func TestTunerSmallBudget(t *testing.T) {
	sp := search.DefaultSpace(64)
	tu := NewTuner(sp, 1, 5)
	res := search.Run(tu, search.ObjectiveFunc(bowl))
	if res.Evals != 1 {
		t.Fatalf("budget-1 tuner made %d evals", res.Evals)
	}
}

// Failure injection: crashed epoch measurements (±Inf/NaN) must not
// poison the surrogate, must never become the incumbent, and the poisoned
// configuration must not be re-proposed.
func TestTunerSurvivesNonFiniteObservations(t *testing.T) {
	sp := search.DefaultSpace(112)
	tu := NewTuner(sp, 20, 5)
	tun := search.Tuning{Strategy: tu}
	var poisoned []search.Config
	n := 0
	for cfg, ok := tun.Next(); ok; cfg, ok = tun.Next() {
		switch {
		case n == 2:
			poisoned = append(poisoned, cfg)
			tun.Observe(cfg, math.Inf(1))
		case n == 7:
			poisoned = append(poisoned, cfg)
			tun.Observe(cfg, math.NaN())
		default:
			tun.Observe(cfg, bowl(cfg))
		}
		n++
	}
	best, bestY := tun.Best()
	if !search.IsFinite(bestY) {
		t.Fatalf("incumbent time %v is not finite", bestY)
	}
	for _, p := range poisoned {
		if best == p {
			t.Fatal("a crashed configuration became the incumbent")
		}
	}
	// All proposals must have been unique, crashed ones included.
	seen := map[search.Config]bool{}
	for _, e := range tu.observedX {
		if seen[e] {
			t.Fatalf("configuration %v proposed twice", e)
		}
		seen[e] = true
	}
}

// With only non-finite observations, the tuner keeps proposing random
// configurations instead of crashing in the GP.
func TestTunerAllObservationsNonFinite(t *testing.T) {
	sp := search.DefaultSpace(64)
	tu := NewTuner(sp, 8, 6)
	n := 0
	for cfg, ok := tu.Next(); ok; cfg, ok = tu.Next() {
		tu.Observe(cfg, math.Inf(1))
		n++
	}
	if n != 8 {
		t.Fatalf("made %d observations, want 8", n)
	}
}
