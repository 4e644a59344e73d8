package platsim

import (
	"math"
	"sync"

	"argo/internal/search"
)

// defaultSimIters bounds simulated iterations per objective evaluation:
// the pipeline reaches steady state within a few iterations, so the epoch
// time is extrapolated from a 40-iteration window (validated by
// TestExtrapolationMatchesFullSim).
const defaultSimIters = 40

// Objective adapts a Scenario to search.Objective: evaluating a
// configuration simulates one training epoch and returns its duration in
// seconds. Evaluations are memoised (the simulator is deterministic), and
// optional multiplicative noise models epoch-time measurement jitter.
type Objective struct {
	Scenario Scenario
	MaxIters int
	// NoiseFrac adds deterministic pseudo-random noise of the given
	// relative magnitude, keyed by configuration and NoiseSeed — distinct
	// seeds model distinct measurement runs (the ± spread in Table IV/V).
	NoiseFrac float64
	NoiseSeed int64

	mu    sync.Mutex
	cache map[search.Config]float64
}

// NewObjective returns a noise-free memoised objective for sc.
func NewObjective(sc Scenario) *Objective {
	return &Objective{Scenario: sc, MaxIters: defaultSimIters}
}

// Evaluate implements search.Objective.
func (o *Objective) Evaluate(c search.Config) float64 {
	o.mu.Lock()
	if o.cache == nil {
		o.cache = map[search.Config]float64{}
	}
	if v, ok := o.cache[c]; ok {
		o.mu.Unlock()
		return o.noisy(c, v)
	}
	o.mu.Unlock()

	maxIters := o.MaxIters
	if maxIters == 0 {
		maxIters = defaultSimIters
	}
	m, err := Simulate(o.Scenario, SimConfig{
		Procs:       c.Procs,
		SampleCores: c.SampleCores,
		TrainCores:  c.TrainCores,
		MaxIters:    maxIters,
	})
	v := math.Inf(1)
	if err == nil {
		v = m.EpochSeconds
	}
	o.mu.Lock()
	o.cache[c] = v
	o.mu.Unlock()
	return o.noisy(c, v)
}

// noisy applies the deterministic jitter.
func (o *Objective) noisy(c search.Config, v float64) float64 {
	if o.NoiseFrac == 0 || math.IsInf(v, 1) {
		return v
	}
	h := uint64(c.Procs)*0x9e3779b9 ^ uint64(c.SampleCores)*0x85ebca6b ^
		uint64(c.TrainCores)*0xc2b2ae35 ^ uint64(o.NoiseSeed)*0x27d4eb2f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	u := float64(h%10000)/10000*2 - 1 // uniform in [-1, 1)
	return v * (1 + o.NoiseFrac*u)
}

// BaselineConfig returns the library's officially recommended
// single-process setup on a machine with `cores` available cores: a few
// sampling workers and the rest for training (Tables IV/V "Default").
func BaselineConfig(lib Profile, cores int) (sampleCores, trainCores int) {
	s := lib.DefaultSample
	if s > cores/4 {
		s = cores / 4
	}
	if s < 1 {
		s = 1
	}
	return s, cores - s
}

// BaselineEpoch simulates the library default (one process) on a core
// budget — the DGL/PyG lines in Figs. 1 and 8.
func BaselineEpoch(sc Scenario, cores int) (float64, error) {
	s, t := BaselineConfig(sc.Library, cores)
	m, err := Simulate(sc, SimConfig{Procs: 1, SampleCores: s, TrainCores: t, MaxIters: defaultSimIters})
	if err != nil {
		return 0, err
	}
	return m.EpochSeconds, nil
}

// BestWithBudget exhaustively finds the best ARGO configuration whose
// total core demand fits the budget — the "with ARGO enabled" lines in
// Fig. 8 (the auto-tuner converges to this configuration; using the true
// optimum isolates scaling behaviour from tuner noise).
func BestWithBudget(sc Scenario, budget int) (search.Config, float64) {
	res := search.Run(search.NewExhaustiveSearcher(search.DefaultSpace(budget)), NewObjective(sc))
	return res.Best, res.BestTime
}
