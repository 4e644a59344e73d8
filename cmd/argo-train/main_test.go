package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
)

type lossFile struct {
	Losses []float64 `json:"losses"`
}

// train runs the command with the pinned configuration the CI parity
// jobs use, plus extra, and returns its -loss-json.
func train(t *testing.T, extra ...string) lossFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "loss.json")
	args := append([]string{"-procs", "2", "-cores", "4", "-strategy", "exhaustive",
		"-epochs", "3", "-searches", "1", "-batch", "32", "-loss-json", path}, extra...)
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("argo-train %s: %v", strings.Join(args, " "), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out lossFile
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// The shard-smoke pairs, in process: sharded training matches
// single-store training on an fp32 store and on an fp16 one.
func TestShardedRunsMatchSingleStore(t *testing.T) {
	ds, err := datasets.Resolve("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.ConvertFeatures(graph.DtypeF16); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store16 := filepath.Join(dir, "tiny16.argograph")
	if err := ds.Save(store16); err != nil {
		t.Fatal(err)
	}
	_, shards16, err := graph.WriteShardSet(ds, dir, "tiny16", graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ single, sharded string }{
		{"tiny", "tiny#3"},
		{store16, shards16[0]},
	} {
		single := train(t, "-dataset", c.single)
		sharded := train(t, "-dataset", c.sharded, "-shards")
		if len(sharded.Losses) != 3 || len(single.Losses) != 3 {
			t.Fatalf("%d losses, single-store %d, want 3", len(sharded.Losses), len(single.Losses))
		}
		for ep := range single.Losses {
			if d := math.Abs(sharded.Losses[ep] - single.Losses[ep]); d > 1e-6 {
				t.Fatalf("%s epoch %d: loss %v, single-store %v", c.sharded, ep, sharded.Losses[ep], single.Losses[ep])
			}
		}
	}
}

// Flag combinations the command refuses are refused before any dataset
// is built: the dataset named here does not exist, so reaching it would
// be the error instead.
func TestBadFlagsAreRefusedBeforeTheDataset(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-sampling", "local"}, "needs -shards"},
		{[]string{"-sampler", "saint"}, "unknown sampler"},
		{[]string{"-model", "gat"}, "unknown model"},
		{[]string{"-lr", "0"}, "-lr 0: the learning rate"},
		{[]string{"-lr", "-0.01"}, "-lr -0.01: the learning rate"},
		{[]string{"-lr", "NaN"}, "-lr NaN: the learning rate"},
		{[]string{"-lr", "Inf"}, "-lr +Inf: the learning rate"},
		{[]string{"-batch", "0"}, "-batch 0: the batch size"},
		{[]string{"-procs", "-1"}, "-procs -1: the process count"},
		{[]string{"-early-stop", "-2"}, "-early-stop -2: the stale-epoch limit"},
		{[]string{"-strategy", "bogus"}, `unknown strategy "bogus"`},
		{[]string{"-cores", "0"}, "TotalCores must be ≥1"},
		{[]string{"-epochs", "0"}, "Epochs must be ≥1"},
		{[]string{"-searches", "30", "-epochs", "20"}, "NumSearches 30 exceeds Epochs 20"},
		{[]string{"-procs", "9", "-cores", "4"}, "-procs 9 does not fit -cores 4: a process needs a sampling and a training core, so -procs N needs -cores ≥ 2N (18 here) and N ≤ 8"},
		{[]string{"-procs", "3", "-cores", "4"}, "-procs 3 does not fit -cores 4: a process needs a sampling and a training core, so -procs N needs -cores ≥ 2N (6 here)"},
	} {
		err := run(append([]string{"-dataset", "no-such-dataset"}, c.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: got %v, want an error containing %q", c.args, err, c.want)
		}
	}
	if err := run([]string{"-dataset", "no-such-dataset"}, io.Discard); err == nil || !strings.Contains(err.Error(), "no-such-dataset") {
		t.Fatalf("unknown dataset: %v", err)
	}
}

func TestSaveCheckpointWritesALoadableModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	var out strings.Builder
	err := run([]string{"-dataset", "tiny", "-procs", "1", "-cores", "2", "-strategy", "exhaustive",
		"-epochs", "2", "-searches", "1", "-batch", "32", "-save-checkpoint", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint written to "+path) || !strings.Contains(out.String(), "validation accuracy") {
		t.Fatalf("output does not report the checkpoint and the accuracy:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := nn.LoadModel(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Params()) == 0 {
		t.Fatal("loaded model has no parameters")
	}
}
