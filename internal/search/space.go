// Package search defines ARGO's 3-D configuration space — number of GNN
// processes, sampling cores per process, training cores per process — and
// the exhaustive/random search baselines the paper compares the auto-tuner
// against (Table IV/V/VI).
package search

import (
	"fmt"
	"math/rand"
	"time"
)

// Config is one point of the design space: n processes, each bound to
// s sampling cores and t training cores.
type Config struct {
	Procs       int `json:"procs"`        // n
	SampleCores int `json:"sample_cores"` // s
	TrainCores  int `json:"train_cores"`  // t
}

// String renders "n=4 s=2 t=8".
func (c Config) String() string {
	return fmt.Sprintf("n=%d s=%d t=%d", c.Procs, c.SampleCores, c.TrainCores)
}

// TotalCores returns the configuration's total core demand n·(s+t).
func (c Config) TotalCores() int { return c.Procs * (c.SampleCores + c.TrainCores) }

// Space is the discrete feasible region. A config is feasible iff every
// dimension is within bounds and the total core demand fits the machine.
//
// Bounds default to n ∈ [1,8], s ∈ [1,10], t ∈ [1,10] (DefaultSpace) —
// n=1 is core-binding without multi-processing — which yields 766
// feasible configs on a 112-core platform and 563 on a 64-core platform,
// the same order as the paper's 726 and 408.
type Space struct {
	TotalCores         int
	MinProcs, MaxProcs int
	MaxSample          int
	MaxTrain           int
}

// DefaultSpace returns the paper-matched bounds for a machine with the
// given core count.
func DefaultSpace(totalCores int) Space {
	return Space{TotalCores: totalCores, MinProcs: 1, MaxProcs: 8, MaxSample: 10, MaxTrain: 10}
}

// Feasible reports whether c lies inside the space.
func (s Space) Feasible(c Config) bool {
	return c.Procs >= s.MinProcs && c.Procs <= s.MaxProcs &&
		c.SampleCores >= 1 && c.SampleCores <= s.MaxSample &&
		c.TrainCores >= 1 && c.TrainCores <= s.MaxTrain &&
		c.TotalCores() <= s.TotalCores
}

// Enumerate lists every feasible configuration in a deterministic order.
func (s Space) Enumerate() []Config {
	var out []Config
	for n := s.MinProcs; n <= s.MaxProcs; n++ {
		for sc := 1; sc <= s.MaxSample; sc++ {
			for tc := 1; tc <= s.MaxTrain; tc++ {
				c := Config{Procs: n, SampleCores: sc, TrainCores: tc}
				if s.Feasible(c) {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Size returns the number of feasible configurations.
func (s Space) Size() int { return len(s.Enumerate()) }

// Random draws a feasible configuration uniformly.
func (s Space) Random(rng *rand.Rand) Config {
	for {
		c := Config{
			Procs:       s.MinProcs + rng.Intn(s.MaxProcs-s.MinProcs+1),
			SampleCores: 1 + rng.Intn(s.MaxSample),
			TrainCores:  1 + rng.Intn(s.MaxTrain),
		}
		if s.Feasible(c) {
			return c
		}
	}
}

// Neighbors returns the feasible one-step moves from c (±1 in a single
// dimension) — the simulated-annealing neighbourhood.
func (s Space) Neighbors(c Config) []Config {
	deltas := []Config{
		{Procs: 1}, {Procs: -1},
		{SampleCores: 1}, {SampleCores: -1},
		{TrainCores: 1}, {TrainCores: -1},
	}
	var out []Config
	for _, d := range deltas {
		nc := Config{
			Procs:       c.Procs + d.Procs,
			SampleCores: c.SampleCores + d.SampleCores,
			TrainCores:  c.TrainCores + d.TrainCores,
		}
		if s.Feasible(nc) {
			out = append(out, nc)
		}
	}
	return out
}

// Objective maps a configuration to its epoch time in seconds (lower is
// better). Implementations: the platform simulator (performance studies)
// and the real training engine (online examples).
type Objective interface {
	Evaluate(Config) float64
}

// ObjectiveFunc adapts a plain function to Objective.
type ObjectiveFunc func(Config) float64

// Evaluate implements Objective.
func (f ObjectiveFunc) Evaluate(c Config) float64 { return f(c) }

// Eval is one recorded objective evaluation.
type Eval struct {
	Config Config
	Time   float64
}

// Result summarises a search run: Best is the incumbent (zero values
// when no evaluation was finite) and Overhead the time spent inside the
// strategy.
type Result struct {
	Best     Config
	BestTime float64
	Evals    int
	History  []Eval
	Overhead time.Duration
}
