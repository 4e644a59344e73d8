package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// headKept reports whether e's next RunEpoch(epoch) serves the batches
// the last epoch sampled ahead for it.
func headKept(e *Engine, epoch int) bool {
	a := e.ahead
	return a.heads != nil && a.epoch == epoch && slices.Equal(a.train, e.cfg.Dataset.TrainIdx)
}

// requireBitEqual fails unless two runs' losses and weights match to
// the bit.
func requireBitEqual(t *testing.T, losses, want []float64, weights, wantW []*tensor.Matrix) {
	t.Helper()
	for i := range want {
		if losses[i] != want[i] {
			t.Fatalf("step %d: %v with the lookahead, %v without (diff %g)", i, losses[i], want[i], losses[i]-want[i])
		}
	}
	for i := range wantW {
		if !weights[i].Equal(wantW[i]) {
			t.Fatalf("weight tensor %d differs by %g", i, weights[i].MaxAbsDiff(wantW[i]))
		}
	}
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a few seconds: the tail's workers exit by themselves.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("%s: %d goroutines, %d before the first epoch", when, now, base)
	}
}

// Sampling the next epoch's first batches ahead changes no bit: over 4
// epochs the losses and the final weights equal those of the same
// engine with every head dropped (Close before each epoch), for one replica reading the dataset,
// for two replicas reading a shard set's table, and under the local
// regime.
func TestLookaheadBitEqualOverEpochs(t *testing.T) {
	ds := shardedTestDataset(t)
	setups := map[string]func(t *testing.T) *Engine{
		"single": func(t *testing.T) *Engine {
			e, err := New(testConfig(t, testDataset(t), 1))
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"exact2": func(t *testing.T) *Engine { return newShardedEngine(t, ds, RegimeExact, nil) },
		"local2": func(t *testing.T) *Engine { return newShardedEngine(t, ds, RegimeLocal, nil) },
	}
	for name, build := range setups {
		t.Run(name, func(t *testing.T) {
			run := func(ahead bool) ([]float64, []*tensor.Matrix) {
				e := build(t)
				var losses []float64
				for ep := 0; ep < 4; ep++ {
					if !ahead {
						e.Close()
					}
					if got := headKept(e, ep); got != (ahead && ep > 0) {
						t.Fatalf("lookahead %v epoch %d: head kept %v", ahead, ep, got)
					}
					res, err := e.RunEpoch(ep)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, res.MeanLoss)
				}
				return losses, cloneWeights(e)
			}
			want, wantW := run(false)
			losses, weights := run(true)
			requireBitEqual(t, losses, want, weights, wantW)
		})
	}
}

// The lookahead keeps its head from one epoch to the next under one
// configuration, an Evaluate between them included, and drops it on
// every Reconfigure (s, t or n), an out-of-order epoch and a new
// TrainIdx. Either way every loss, accuracy and final weight equals the
// same schedule's with every head dropped, whether the replicas read
// per-replica sources or the dataset. As GNNTrainer.bind does, a step
// reconfigures only when its (n, s, t) differs from the last step's.
func TestLookaheadAcrossReconfigureAndEvaluate(t *testing.T) {
	steps := []struct {
		n, s, t, epoch  int
		eval, cut, kept bool
	}{
		{n: 2, s: 1, t: 1, epoch: 0},
		{n: 2, s: 1, t: 1, epoch: 1, kept: true},
		{n: 2, s: 3, t: 1, epoch: 2},                         // s
		{n: 2, s: 3, t: 2, epoch: 3},                         // t
		{n: 2, s: 3, t: 2, epoch: 4, eval: true, kept: true}, // Evaluate first
		{n: 3, s: 3, t: 2, epoch: 5},                         // n
		{n: 3, s: 3, t: 2, epoch: 7},                         // out of order
		{n: 3, s: 3, t: 2, epoch: 8, kept: true},
		{n: 3, s: 3, t: 2, epoch: 6}, // backwards
		{n: 1, s: 2, t: 1, epoch: 7},
		{n: 1, s: 2, t: 1, epoch: 8, cut: true}, // TrainIdx
		{n: 1, s: 2, t: 1, epoch: 9, cut: true, kept: true},
	}
	base, src := reconfigureSetup(t)
	own := testConfig(t, testDataset(t), 1)
	configs := map[string]func(n int) Config{
		"sources": func(n int) Config { return withProcs(base, src, n) },
		"dataset": func(n int) Config { c := own; c.NumProcs = n; return c },
	}
	for name, configFor := range configs {
		t.Run(name, func(t *testing.T) {
			run := func(ahead bool) ([]float64, []*tensor.Matrix) {
				var e *Engine
				var out []float64
				for i, st := range steps {
					cfg := configFor(st.n)
					cfg.SampleWorkers, cfg.TrainWorkers = st.s, st.t
					full := cfg.Dataset.TrainIdx
					if st.cut {
						cfg.Dataset.TrainIdx = full[:len(full)*3/4]
					}
					var err error
					if e == nil {
						e, err = New(cfg)
					} else if last := steps[i-1]; st.n != last.n || st.s != last.s || st.t != last.t {
						err = e.Reconfigure(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !ahead {
						e.Close()
					}
					if st.eval {
						acc, err := e.Evaluate(cfg.Dataset.ValIdx)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, acc)
					}
					if got := headKept(e, st.epoch); got != (st.kept && ahead) {
						t.Fatalf("lookahead %v step %d (epoch %d): head kept %v", ahead, i, st.epoch, got)
					}
					res, err := e.RunEpoch(st.epoch)
					cfg.Dataset.TrainIdx = full
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res.MeanLoss)
				}
				return out, cloneWeights(e)
			}
			want, wantW := run(false)
			losses, weights := run(true)
			requireBitEqual(t, losses, want, weights, wantW)
		})
	}
}

// No goroutine outlives the tail's own sampling: after the last epoch,
// after Close, after a dropped head and after an epoch that aborts on a
// fetch error while serving a kept head, the goroutine count returns to
// what it was before the first epoch (the pattern of
// TestOverlapFetchErrorPropagates).
func TestLookaheadGoroutinesExit(t *testing.T) {
	var broken *brokenSource
	e := newShardedEngine(t, shardedTestDataset(t), RegimeExact, func(r int, s DataSource) DataSource {
		if r == 1 {
			broken = &brokenSource{DataSource: s}
			return broken
		}
		return s
	})
	cfg := e.Config()
	cfg.SampleWorkers, cfg.BatchSize = 3, 8 // 15 iterations: more than the window
	if err := e.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for ep := 0; ep < 3; ep++ {
		if _, err := e.RunEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, before, "after the last epoch")

	if _, err := e.RunEpoch(3); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e.ahead.heads != nil {
		t.Fatal("Close left a head behind")
	}
	waitGoroutines(t, before, "after Close")

	if _, err := e.RunEpoch(7); err != nil { // drops epoch 3's head
		t.Fatal(err)
	}
	waitGoroutines(t, before, "after a dropped head")

	if !headKept(e, 8) {
		t.Fatal("epoch 7 sampled no head for epoch 8")
	}
	broken.failing.Store(true)
	_, err := e.RunEpoch(8)
	if !errors.Is(err, errInjected) {
		t.Fatalf("epoch after the armed fault returned %v", err)
	}
	if e.ahead.heads != nil {
		t.Fatal("an aborted epoch left a head behind")
	}
	waitGoroutines(t, before, fmt.Sprintf("after an aborted epoch (%v)", err))
	broken.failing.Store(false)
	if _, err := e.RunEpoch(9); err != nil {
		t.Fatalf("engine unusable after the abort: %v", err)
	}
}

// brokenSource fails every gather while failing is set.
type brokenSource struct {
	DataSource
	failing atomic.Bool
}

func (b *brokenSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	if b.failing.Load() {
		return nil, errInjected
	}
	return b.DataSource.GatherFeatures(ids)
}
