package argo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"argo/internal/search"
)

// bowl is the deterministic synthetic cost surface shared by the parity
// tests: a smooth quadratic with a unique minimum inside the space.
func bowl(cfg Config) float64 {
	dn := float64(cfg.Procs - 3)
	ds := float64(cfg.SampleCores - 4)
	dt := float64(cfg.TrainCores - 5)
	return 1 + 0.05*dn*dn + 0.04*ds*ds + 0.03*dt*dt
}

func TestStrategiesRegistry(t *testing.T) {
	want := []string{StrategyAnneal, StrategyBayesOpt, StrategyExhaustive, StrategyRandom}
	if names := Strategies(); !reflect.DeepEqual(names, want) {
		t.Fatalf("Strategies() = %v, want %v", names, want)
	}
	if _, err := NewStrategy("no-such-strategy", DefaultSpace(16), 5, 1); err == nil {
		t.Fatal("unknown strategy must error")
	}
	if _, err := NewStrategy("  BAYESOPT ", DefaultSpace(16), 5, 1); err != nil {
		t.Fatalf("lookup must be case- and space-insensitive: %v", err)
	}
	if rt, err := NewRuntime(5, 2, WithStrategy(" Anneal ")); err != nil || rt.StrategyName() != StrategyAnneal {
		t.Fatalf("WithStrategy must store the canonical name: %v", err)
	}
}

// Parity: every strategy, run through the public
// Runtime.Run(ctx, train) loop with a full-coverage budget, must land
// within 10 % of the true optimum of the synthetic surface.
func TestStrategyParityOnSyntheticSurface(t *testing.T) {
	space := DefaultSpace(16)
	optimum := search.Run(search.NewExhaustiveSearcher(space), search.ObjectiveFunc(bowl)).BestTime
	if optimum <= 0 {
		t.Fatal("degenerate surface")
	}
	budget := space.Size()
	builtins := []string{StrategyAnneal, StrategyBayesOpt, StrategyExhaustive, StrategyRandom}
	for _, name := range builtins {
		t.Run(name, func(t *testing.T) {
			run := func() Report {
				rt, err := NewRuntime(budget+4, budget,
					WithSpace(space),
					WithStrategy(name),
					WithSeed(11),
				)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
					return bowl(cfg), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			rep := run()
			// The proposal sequence is a pure function of the seed.
			if again := run(); !reflect.DeepEqual(rep.History, again.History) {
				t.Fatalf("strategy %s: two runs of one seed diverged:\n%v\n%v", name, rep.History, again.History)
			}
			if rep.BestEpochSeconds > optimum*1.10 {
				t.Fatalf("strategy %s found %.4f, true optimum %.4f (>10%% off)", name, rep.BestEpochSeconds, optimum)
			}
			if bowl(rep.Best) != rep.BestEpochSeconds {
				t.Fatalf("best config %v inconsistent with best seconds %v", rep.Best, rep.BestEpochSeconds)
			}
			if rep.Strategy != name {
				t.Fatalf("report credits %q, ran %q", rep.Strategy, name)
			}
			if rep.SearchEpochs == 0 {
				t.Fatalf("strategy %s made no proposals", name)
			}
		})
	}
}

// Exhaustive coverage: with a budget equal to the space size, bayesopt,
// random and exhaustive visit every configuration and must find the exact
// optimum.
func TestFullBudgetStrategiesFindExactOptimum(t *testing.T) {
	space := DefaultSpace(16)
	optimum := search.Run(search.NewExhaustiveSearcher(space), search.ObjectiveFunc(bowl)).BestTime
	for _, name := range []string{StrategyBayesOpt, StrategyRandom, StrategyExhaustive} {
		strat, err := NewStrategy(name, space, space.Size(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if best := search.Run(strat, search.ObjectiveFunc(bowl)).BestTime; best != optimum {
			t.Fatalf("strategy %s with full budget found %.4f, want exact %.4f", name, best, optimum)
		}
	}
}

// A crashed first evaluation must not become the optimum: the offline
// loop takes Best from its Tuning's incumbent, which ignores non-finite
// times, for every built-in strategy.
func TestCrashedFirstEvaluationIsNotTheOptimum(t *testing.T) {
	space := DefaultSpace(16)
	for _, name := range []string{StrategyAnneal, StrategyBayesOpt, StrategyExhaustive, StrategyRandom} {
		strat, err := NewStrategy(name, space, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		first := true
		res := search.Run(strat, search.ObjectiveFunc(func(c Config) float64 {
			if first {
				first = false
				return math.NaN()
			}
			return bowl(c)
		}))
		if !search.IsFinite(res.BestTime) || res.Best == res.History[0].Config || !space.Feasible(res.Best) {
			t.Errorf("%s: best %v at %v after a crashed first evaluation of %v", name, res.Best, res.BestTime, res.History[0].Config)
		}
	}
}

// Cancelling the context mid-search must stop the loop between epochs and
// return the partial Report, without leaking goroutines.
func TestRunCancellationReturnsPartialReport(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt, err := NewRuntime(100, 50, WithTotalCores(16), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := rt.Run(ctx, func(_ context.Context, cfg Config, _ int) (float64, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		return bowl(cfg), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Fatalf("train called %d times after mid-search cancel, want 3", calls)
	}
	if len(rep.History) != 3 {
		t.Fatalf("partial report has %d records, want 3", len(rep.History))
	}
	for _, h := range rep.History {
		if h.Phase != PhaseSearch {
			t.Fatalf("record %v has phase %q", h.Epoch, h.Phase)
		}
	}
	// The partial report must keep the incumbent from the completed
	// search epochs, not a zero config.
	if rep.BestEpochSeconds != bowl(rep.Best) {
		t.Fatalf("partial report lost the incumbent: best %v at %v", rep.Best, rep.BestEpochSeconds)
	}
	want := rep.History[0].Seconds
	for _, h := range rep.History[1:] {
		if h.Seconds < want {
			want = h.Seconds
		}
	}
	if rep.BestEpochSeconds != want {
		t.Fatalf("partial incumbent %v is not the min of observed epochs %v", rep.BestEpochSeconds, want)
	}
	// The loop is synchronous: no goroutines may outlive Run.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before Run, %d after", before, after)
	}
}

// Cancelling during the reuse phase must keep the search results in the
// partial report.
func TestRunCancellationDuringReuse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt, err := NewRuntime(100, 2, WithTotalCores(16), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := rt.Run(ctx, func(_ context.Context, cfg Config, _ int) (float64, error) {
		calls++
		if calls == 5 {
			cancel()
		}
		return bowl(cfg), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if len(rep.History) != 5 {
		t.Fatalf("partial report has %d records, want 5", len(rep.History))
	}
	if rep.SearchEpochs != 2 || rep.History[2].Phase != PhaseReuse {
		t.Fatal("search results missing from partial report")
	}
	if rep.BestEpochSeconds != bowl(rep.Best) {
		t.Fatal("partial report lost the search incumbent")
	}
}

// A run whose measurements all crash (non-finite epoch times) must error
// out instead of driving the reuse phase with the zero-value config.
func TestRunAllCrashedSearchErrors(t *testing.T) {
	rt, err := NewRuntime(10, 3, WithTotalCores(16), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		calls++
		return math.Inf(1), nil // every epoch crashes
	})
	if err == nil {
		t.Fatal("all-crashed run must error, not reuse a zero config")
	}
	if calls != 3 {
		t.Fatalf("train called %d times, want 3 (search only, no reuse)", calls)
	}
	if rep.SearchEpochs != 3 || len(rep.History) != 3 {
		t.Fatalf("partial report %d/%d records", rep.SearchEpochs, len(rep.History))
	}
	if rep.TotalSeconds != 0 {
		t.Fatalf("crashed measurements leaked into TotalSeconds: %v", rep.TotalSeconds)
	}
}

// Early stopping must also fire when measurements crash: stale epochs
// without a finite incumbent still count toward the patience.
func TestEarlyStopFiresOnCrashedMeasurements(t *testing.T) {
	rt, err := NewRuntime(20, 10, WithTotalCores(16), WithSeed(8), WithEarlyStop(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		return math.Inf(1), nil
	})
	if err == nil {
		t.Fatal("all-crashed run must error")
	}
	if rep.SearchEpochs != 2 {
		t.Fatalf("early stop let %d crashed search epochs run, want 2", rep.SearchEpochs)
	}
}

// A best config that starts crashing after the search phase must abort
// the reuse phase instead of silently burning the remaining epochs.
func TestRunAbortsOnCrashedReuse(t *testing.T) {
	rt, err := NewRuntime(20, 2, WithTotalCores(16), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		calls++
		if calls <= 2 {
			return 2.0, nil // search succeeds
		}
		return math.Inf(1), nil // reuse crashes every epoch
	})
	if err == nil {
		t.Fatal("all-crashed reuse must abort")
	}
	if calls != 5 { // 2 search + 3 consecutive crashed reuse epochs
		t.Fatalf("train called %d times, want 5", calls)
	}
	if rep.SearchEpochs != 2 || rep.BestEpochSeconds != 2.0 {
		t.Fatalf("partial report lost search results: %+v", rep)
	}
}

// The event stream must stay one-to-one with History even when the reuse
// phase aborts on consecutive crashes.
func TestEventsMatchHistoryOnCrashedReuseAbort(t *testing.T) {
	var events []Event
	rt, err := NewRuntime(20, 2, WithTotalCores(16), WithSeed(8),
		WithEvents(func(e Event) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		calls++
		if calls <= 2 {
			return 2.0, nil
		}
		return math.Inf(1), nil
	})
	if err == nil {
		t.Fatal("all-crashed reuse must abort")
	}
	if len(events) != len(rep.History) {
		t.Fatalf("%d events vs %d history records", len(events), len(rep.History))
	}
}

// Events must marshal even for a crashed epoch (NDJSON streaming).
func TestEventJSONWithCrashedEpoch(t *testing.T) {
	e := Event{Strategy: StrategyRandom, Epoch: 3, Phase: PhaseSearch,
		Config: Config{Procs: 2, SampleCores: 1, TrainCores: 1}, Seconds: math.Inf(1), Searched: 4}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("marshalling crashed event: %v", err)
	}
	if !strings.Contains(string(b), `"crashed":true`) {
		t.Fatalf("crashed flag missing: %s", b)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Seconds, 1) {
		t.Fatalf("crashed event decoded as %v, want +Inf", back.Seconds)
	}
	if back.Epoch != e.Epoch || back.Config != e.Config || back.Searched != e.Searched {
		t.Fatalf("event round trip mismatch: %+v vs %+v", back, e)
	}
}

// A report containing a crashed epoch must still serialise and round-trip
// (JSON has no +Inf).
func TestReportJSONWithCrashedEpoch(t *testing.T) {
	rep := Report{
		Strategy:         StrategyRandom,
		Best:             Config{Procs: 1, SampleCores: 1, TrainCores: 1},
		BestEpochSeconds: 1.5,
		History: []EpochRecord{
			{Epoch: 0, Config: Config{Procs: 1, SampleCores: 1, TrainCores: 1}, Seconds: 1.5, Phase: PhaseSearch},
			{Epoch: 1, Config: Config{Procs: 8, SampleCores: 1, TrainCores: 1}, Seconds: math.Inf(1), Phase: PhaseSearch},
		},
		SearchEpochs: 2,
		TotalSeconds: 1.5,
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with crashed epoch: %v", err)
	}
	if !strings.Contains(buf.String(), `"crashed": true`) {
		t.Fatalf("crashed epoch not flagged in JSON:\n%s", buf.String())
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.History[1].Seconds, 1) {
		t.Fatalf("crashed epoch decoded as %v, want +Inf", back.History[1].Seconds)
	}
	if back.History[0].Seconds != 1.5 {
		t.Fatalf("finite epoch decoded as %v", back.History[0].Seconds)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rt, err := NewRuntime(6, 3, WithTotalCores(16), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
		return bowl(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, rep)
	}
	if _, err := ReadReport(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// oldShardedReport is a report as sharded argo-train runs wrote it
// while replicas exchanged feature rows: it carries an "exchange"
// traffic block that Report no longer has.
const oldShardedReport = `{
  "strategy": "exhaustive",
  "best": {"procs": 1, "sample_cores": 2, "train_cores": 3},
  "best_epoch_seconds": 0.001,
  "history": [
    {"epoch": 0, "config": {"procs": 2, "sample_cores": 1, "train_cores": 1}, "seconds": 1.5, "phase": "search"},
    {"epoch": 1, "config": {"procs": 1, "sample_cores": 2, "train_cores": 3}, "seconds": 0.001, "phase": "search"},
    {"epoch": 2, "config": {"procs": 1, "sample_cores": 2, "train_cores": 3}, "seconds": 0.002, "phase": "reuse"}
  ],
  "search_epochs": 2,
  "tuner_overhead_ns": 2461,
  "total_seconds": 1.503,
  "exchange": {
    "transport": "inproc",
    "local_rows": 117,
    "remote_rows": 118,
    "remote_bytes": 7552,
    "wire_bytes": 8120,
    "messages": 4,
    "peers": [
      {"from": 0, "to": 1, "rows": 40, "bytes": 2560, "wire_bytes": 2744, "messages": 1},
      {"from": 1, "to": 0, "rows": 78, "bytes": 4992, "wire_bytes": 5376, "messages": 3}
    ]
  }
}`

// A report that older sharded runs wrote, exchange block included,
// still reads and still warm-starts: its search history is replayed, so
// its fast configuration, which the bowl surface cannot beat, is the
// new run's incumbent without costing a search epoch.
func TestOldReportWithExchangeStillWarmStarts(t *testing.T) {
	prior, err := ReadReport(strings.NewReader(oldShardedReport))
	if err != nil {
		t.Fatal(err)
	}
	fast := Config{Procs: 1, SampleCores: 2, TrainCores: 3}
	if len(prior.History) != 3 || prior.Best != fast {
		t.Fatalf("old report decoded to %+v", prior)
	}
	rt, err := NewRuntime(6, 3, WithTotalCores(16), WithSeed(3), WithWarmStart(prior))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) { return bowl(cfg), nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != fast || rep.BestEpochSeconds != 0.001 {
		t.Fatalf("best %v at %gs, want the replayed %v at 0.001s", rep.Best, rep.BestEpochSeconds, fast)
	}
	if rep.SearchEpochs != 3 {
		t.Fatalf("the replay consumed the search budget: %d search epochs, want 3", rep.SearchEpochs)
	}
}

// Warm-starting from a previous report must prime the strategy with the
// prior observations: the incumbent can only be at least as good, and the
// warm observations must not consume the new run's search budget.
func TestWarmStart(t *testing.T) {
	train := func(_ context.Context, cfg Config, _ int) (float64, error) { return bowl(cfg), nil }
	rt1, err := NewRuntime(12, 10, WithTotalCores(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := rt1.Run(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(8, 6, WithTotalCores(16), WithSeed(2), WithWarmStart(rep1))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := rt2.Run(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BestEpochSeconds > rep1.BestEpochSeconds {
		t.Fatalf("warm-started best %.4f worse than prior best %.4f", rep2.BestEpochSeconds, rep1.BestEpochSeconds)
	}
	if rep2.SearchEpochs != 6 {
		t.Fatalf("warm start consumed the search budget: %d search epochs, want 6", rep2.SearchEpochs)
	}
	if len(rep2.History) != 8 {
		t.Fatalf("warm-started run trained %d epochs, want 8", len(rep2.History))
	}
}

// Warm-start records that are infeasible in the new run's (smaller)
// space must be dropped: a 112-core incumbent must not drive a 16-core
// reuse phase.
func TestWarmStartDropsInfeasibleRecords(t *testing.T) {
	big := Report{History: []EpochRecord{
		// Feasible only on a big machine — and faster than anything the
		// 16-core space can do on this surface, so if replayed it would
		// win the incumbent.
		{Epoch: 0, Config: Config{Procs: 8, SampleCores: 4, TrainCores: 8}, Seconds: 0.001, Phase: PhaseSearch},
		{Epoch: 1, Config: Config{Procs: 1, SampleCores: 2, TrainCores: 2}, Seconds: bowl(Config{Procs: 1, SampleCores: 2, TrainCores: 2}), Phase: PhaseSearch},
	}}
	space := DefaultSpace(16)
	rt, err := NewRuntime(6, 3, WithSpace(space), WithSeed(5), WithWarmStart(big))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(_ context.Context, cfg Config, _ int) (float64, error) {
		if !space.Feasible(cfg) {
			t.Fatalf("runtime trained infeasible config %v", cfg)
		}
		return bowl(cfg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !space.Feasible(rep.Best) {
		t.Fatalf("best %v infeasible on 16 cores", rep.Best)
	}
	if rep.Best.TotalCores() > 16 {
		t.Fatalf("best %v exceeds 16 cores", rep.Best)
	}
}

// A warm-started exhaustive run must continue the enumeration instead of
// re-measuring the configurations the prior report already observed.
func TestWarmStartExhaustiveSkipsObservedPrefix(t *testing.T) {
	train := func(_ context.Context, cfg Config, _ int) (float64, error) { return bowl(cfg), nil }
	rt1, err := NewRuntime(10, 10, WithTotalCores(16), WithStrategy(StrategyExhaustive))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := rt1.Run(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	already := map[Config]bool{}
	for _, h := range rep1.History {
		already[h.Config] = true
	}
	rt2, err := NewRuntime(10, 10, WithTotalCores(16), WithStrategy(StrategyExhaustive), WithWarmStart(rep1))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := rt2.Run(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rep2.History {
		if h.Phase == PhaseSearch && already[h.Config] {
			t.Fatalf("warm-started exhaustive re-measured %v", h.Config)
		}
	}
	if rep2.SearchEpochs != 10 {
		t.Fatalf("warm-started run searched %d epochs, want 10", rep2.SearchEpochs)
	}
}

// Early stopping must cut the search phase after `patience` stale epochs
// and hand the rest to reuse.
func TestEarlyStop(t *testing.T) {
	rt, err := NewRuntime(30, 20, WithTotalCores(16), WithSeed(3), WithEarlyStop(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background(), func(context.Context, Config, int) (float64, error) {
		return 2.5, nil // flat surface: nothing ever improves
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SearchEpochs != 4 { // 1 first observation + 3 stale
		t.Fatalf("early stop after %d search epochs, want 4", rep.SearchEpochs)
	}
	if len(rep.History) != 30 {
		t.Fatalf("early-stopped run trained %d epochs, want 30", len(rep.History))
	}
	if rep.History[4].Phase != PhaseReuse {
		t.Fatal("epochs after early stop must be reuse")
	}
}
