package search

import (
	"math"
	"testing"
	"time"
)

// scripted is a Strategy that proposes a fixed list and sleeps for pause
// in every call, so the time a Tuning charges to it has a known floor.
type scripted struct {
	proposals []Config
	observed  []float64
	pause     time.Duration
}

func (s *scripted) Next() (Config, bool) {
	time.Sleep(s.pause)
	if len(s.proposals) == 0 {
		return Config{}, false
	}
	c := s.proposals[0]
	s.proposals = s.proposals[1:]
	return c, true
}

func (s *scripted) Observe(_ Config, y float64) {
	time.Sleep(s.pause)
	s.observed = append(s.observed, y)
}

func cfg(n int) Config { return Config{Procs: n, SampleCores: 1, TrainCores: 1} }

// Every observation reaches the strategy; Observe reports a new
// incumbent exactly when the first finite cost arrives or a strictly
// lower one does, and Best follows.
func TestTuningKeepsTheIncumbent(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type obs struct {
		c        Config
		y        float64
		improved bool
		best     Config
		bestY    float64
	}
	for _, tc := range []struct {
		name string
		seq  []obs
	}{
		{"first finite wins, equal and higher do not replace", []obs{
			{cfg(1), 3, true, cfg(1), 3},
			{cfg(2), 3, false, cfg(1), 3},
			{cfg(3), 5, false, cfg(1), 3},
			{cfg(4), 2, true, cfg(4), 2},
			{cfg(5), 2.5, false, cfg(4), 2},
		}},
		{"crashed measurements never win", []obs{
			{cfg(1), nan, false, Config{}, 0},
			{cfg(2), inf, false, Config{}, 0},
			{cfg(3), -inf, false, Config{}, 0},
			{cfg(4), 7, true, cfg(4), 7},
			{cfg(5), -inf, false, cfg(4), 7},
			{cfg(6), nan, false, cfg(4), 7},
			{cfg(7), inf, false, cfg(4), 7},
		}},
		{"a 0-second measurement is a real incumbent", []obs{
			{cfg(1), 0, true, cfg(1), 0},
			{cfg(2), 0, false, cfg(1), 0},
			{cfg(3), 1, false, cfg(1), 0},
			{cfg(4), nan, false, cfg(1), 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{}
			tun := Tuning{Strategy: s}
			if c, y := tun.Best(); c != (Config{}) || y != 0 {
				t.Fatalf("fresh Tuning has incumbent %v at %v", c, y)
			}
			for i, o := range tc.seq {
				if got := tun.Observe(o.c, o.y); got != o.improved {
					t.Errorf("observation %d (%v at %v): Observe = %v, want %v", i, o.c, o.y, got, o.improved)
				}
				if c, y := tun.Best(); c != o.best || y != o.bestY {
					t.Errorf("after observation %d: Best = %v at %v, want %v at %v", i, c, y, o.best, o.bestY)
				}
			}
			if len(s.observed) != len(tc.seq) {
				t.Fatalf("strategy saw %d of %d observations", len(s.observed), len(tc.seq))
			}
		})
	}
}

// The overhead clock runs through both halves of every step.
func TestTuningOverheadCoversNextAndObserve(t *testing.T) {
	const pause = 2 * time.Millisecond
	tun := Tuning{Strategy: &scripted{proposals: []Config{cfg(1)}, pause: pause}}
	c, ok := tun.Next()
	if !ok {
		t.Fatal("scripted strategy proposed nothing")
	}
	afterNext := tun.Overhead()
	if afterNext < pause {
		t.Fatalf("overhead %v after one Next, want ≥ %v", afterNext, pause)
	}
	tun.Observe(c, 1)
	if got := tun.Overhead(); got < afterNext+pause {
		t.Fatalf("overhead %v after Next and Observe, want ≥ %v", got, afterNext+pause)
	}
}

// Run carries the Tuning's incumbent and overhead into its Result.
func TestRunReportsTuningScore(t *testing.T) {
	s := &scripted{proposals: []Config{cfg(1), cfg(2), cfg(3)}, pause: time.Millisecond}
	costs := map[Config]float64{cfg(1): math.NaN(), cfg(2): 4, cfg(3): 4}
	res := Run(s, ObjectiveFunc(func(c Config) float64 { return costs[c] }))
	if res.Evals != 3 || res.Best != cfg(2) || res.BestTime != 4 {
		t.Fatalf("Run = %d evals, best %v at %v; want 3, %v at 4", res.Evals, res.Best, res.BestTime, cfg(2))
	}
	// Four Next calls (the last returns ok=false) and three Observes.
	if res.Overhead < 7*time.Millisecond {
		t.Fatalf("Run overhead %v, want ≥ 7ms", res.Overhead)
	}
}
