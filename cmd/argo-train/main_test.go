package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"argo"
	"argo/internal/nn"
)

type lossFile struct {
	Losses   []float64           `json:"losses"`
	Exchange *argo.ExchangeStats `json:"exchange"`
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

// The exchange-smoke triple, in process: sharded training matches
// single-store training on both transports, and the two transports
// report the same traffic.
func TestShardedRunsMatchSingleStore(t *testing.T) {
	single := train(t, "-dataset", "tiny")
	inproc := train(t, "-dataset", "tiny#3", "-shards", "-transport", "inproc")
	tcp := train(t, "-dataset", "tiny#3", "-shards", "-transport", "tcp")
	if single.Exchange != nil {
		t.Fatalf("single-store run reported exchange traffic: %+v", single.Exchange)
	}
	for name, run := range map[string]lossFile{"inproc": inproc, "tcp": tcp} {
		if len(run.Losses) != 3 || len(single.Losses) != 3 {
			t.Fatalf("%s: %d losses, single-store %d, want 3", name, len(run.Losses), len(single.Losses))
		}
		for ep := range single.Losses {
			if d := math.Abs(run.Losses[ep] - single.Losses[ep]); d > 1e-6 {
				t.Fatalf("%s epoch %d: loss %v, single-store %v", name, ep, run.Losses[ep], single.Losses[ep])
			}
		}
		if run.Exchange == nil || run.Exchange.Transport != name || run.Exchange.Messages == 0 {
			t.Fatalf("%s: exchange block %+v", name, run.Exchange)
		}
	}
	tcp.Exchange.Transport = inproc.Exchange.Transport
	if !reflect.DeepEqual(inproc.Exchange, tcp.Exchange) {
		t.Fatalf("transports report different traffic:\n%+v\n%+v", inproc.Exchange, tcp.Exchange)
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
		{[]string{"-transport", "carrier-pigeon"}, "unknown -transport"},
		{[]string{"-sampler", "saint"}, "unknown sampler"},
		{[]string{"-model", "gat"}, "unknown model"},
		{[]string{"-lr", "0"}, "-lr 0: the learning rate"},
		{[]string{"-lr", "-0.01"}, "-lr -0.01: the learning rate"},
		{[]string{"-lr", "NaN"}, "-lr NaN: the learning rate"},
		{[]string{"-lr", "Inf"}, "-lr +Inf: the learning rate"},
		{[]string{"-batch", "0"}, "-batch 0: the batch size"},
		{[]string{"-procs", "-1"}, "-procs -1: the process count"},
		{[]string{"-early-stop", "-2"}, "-early-stop -2: the stale-epoch limit"},
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
