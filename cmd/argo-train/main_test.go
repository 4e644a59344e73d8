package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
)

// A shard store is not a dataset: -dataset refuses it with the typed
// error before any training starts (shard 1 carries no manifest, shard 0
// does; both are refused).
func TestShardStoreIsRefused(t *testing.T) {
	ds, err := datasets.Build("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, paths, err := graph.WriteShardSet(ds, t.TempDir(), "tiny", graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		var out strings.Builder
		err := run([]string{"-dataset", path, "-procs", "1", "-cores", "2", "-epochs", "1", "-searches", "1"}, &out)
		if !errors.Is(err, datasets.ErrShardStore) {
			t.Fatalf("-dataset %s: %v, want ErrShardStore", path, err)
		}
		if strings.Contains(out.String(), "strategy") {
			t.Fatalf("-dataset %s: training set up before the refusal:\n%s", path, out.String())
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
