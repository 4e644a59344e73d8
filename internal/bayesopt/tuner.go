package bayesopt

import (
	"math/rand"
	"slices"

	"argo/internal/search"
)

// Tuner is ARGO's online auto-tuner (paper Algorithm 1). It proposes one
// configuration per training epoch: the first InitRandom proposals are
// random probes, after which a GP surrogate is refit to all observations
// and the next proposal maximises Expected Improvement over the whole
// feasible space (exact argmax — the space is small and discrete).
//
// The tuner is objective-agnostic: it never sees the platform, model or
// dataset, only (configuration, epoch-time) pairs, which is what lets
// ARGO adapt to any setup.
type Tuner struct {
	Space       search.Space
	NumSearches int // online-learning budget (Table VI)
	InitRandom  int // random probes before the GP takes over

	rng        *rand.Rand
	candidates []search.Config
	observedX  []search.Config
	observedY  []float64
	seen       map[search.Config]bool
}

// NewTuner builds a tuner over sp with the given online-learning budget.
func NewTuner(sp search.Space, numSearches int, seed int64) *Tuner {
	init := 5
	if init > numSearches/2 {
		init = numSearches / 2
	}
	if init < 1 {
		init = 1
	}
	return &Tuner{
		Space:       sp,
		NumSearches: numSearches,
		InitRandom:  init,
		rng:         rand.New(rand.NewSource(seed)),
		candidates:  sp.Enumerate(),
		seen:        map[search.Config]bool{},
	}
}

// Next proposes the configuration to run the next training epoch with.
// ok is false once the online-learning budget is exhausted.
func (t *Tuner) Next() (search.Config, bool) {
	if len(t.observedX) >= t.NumSearches {
		return search.Config{}, false
	}
	return t.propose(), true
}

// propose is one step of Algorithm 1: a random probe, or the EI argmax
// under a GP refit to every finite observation.
func (t *Tuner) propose() search.Config {
	if len(t.observedX) < t.InitRandom {
		return t.randomUnseen()
	}
	// Fit only on finite observations: a crashed or timed-out epoch
	// measurement (±Inf/NaN) must not poison the surrogate.
	xs, ys := t.finiteSamples()
	if len(xs) < 2 {
		return t.randomUnseen()
	}
	g, err := fitGP(xs, ys)
	if err != nil {
		return t.randomUnseen()
	}
	bestY := slices.Min(ys)
	bestEI := -1.0
	var bestCfg search.Config
	found := false
	for _, c := range t.candidates {
		if t.seen[c] {
			continue
		}
		mu, sigma := g.predict(t.normalize(c))
		if ei := expectedImprovement(mu, sigma, bestY); ei > bestEI {
			bestEI, bestCfg, found = ei, c, true
		}
	}
	if !found {
		return t.randomUnseen()
	}
	return bestCfg
}

// Observe records an evaluated configuration and its epoch time.
// Non-finite times (a crashed epoch) are recorded as seen — so the
// configuration is never proposed again — but excluded from the
// surrogate.
func (t *Tuner) Observe(c search.Config, epochTime float64) {
	t.observedX = append(t.observedX, c)
	t.observedY = append(t.observedY, epochTime)
	t.seen[c] = true
}

// finiteSamples filters the training set for the GP.
func (t *Tuner) finiteSamples() ([][]float64, []float64) {
	var xs [][]float64
	var ys []float64
	for i, y := range t.observedY {
		if search.IsFinite(y) {
			xs = append(xs, t.normalize(t.observedX[i]))
			ys = append(ys, y)
		}
	}
	return xs, ys
}

// randomUnseen draws a random feasible configuration not yet observed
// (falling back to any random one once the space is exhausted).
func (t *Tuner) randomUnseen() search.Config {
	if len(t.seen) >= len(t.candidates) {
		return t.Space.Random(t.rng)
	}
	for {
		c := t.Space.Random(t.rng)
		if !t.seen[c] {
			return c
		}
	}
}

// normalize maps a config into [0,1]^3 for the kernel.
func (t *Tuner) normalize(c search.Config) []float64 {
	sp := t.Space
	span := func(v, lo, hi int) float64 {
		if hi == lo {
			return 0
		}
		return float64(v-lo) / float64(hi-lo)
	}
	return []float64{
		span(c.Procs, sp.MinProcs, sp.MaxProcs),
		span(c.SampleCores, 1, sp.MaxSample),
		span(c.TrainCores, 1, sp.MaxTrain),
	}
}
