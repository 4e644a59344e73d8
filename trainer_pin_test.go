package argo

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// pinnedTrainerRuns holds, for four trainer set-ups on tiny (seed 7,
// SAGE 16-8-3, fan-outs 4/4, batch 32, lr 0.01), the hex-float loss of
// every epoch of the re-launch schedule in pinnedSchedule and, for the
// sharded ones, the whole-run ExchangeStats JSON. They were recorded
// when the sampler's per-entry reservoir draw became the keyed Floyd
// draw, the exact runs' traffic when the exact regime's features went
// behind the first-touch row cache, the local run's traffic when the
// local regime stopped routing input-feature gradients; every loss bit
// and traffic counter must survive any change that does not declare a
// new sampled stream.
var pinnedTrainerRuns = map[string][2]string{
	"single": {"0x1.203f0d9d16f66p+00 0x1.b2e9f682bf784p-01 0x1.2b006979c0d2fp-01 0x1.c5e46b394c427p-02", ""},
	"exact/inproc": {"0x1.203f0d9d16f66p+00 0x1.b2e9f682bf784p-01 0x1.2b006979c0d2fp-01 0x1.c5e46b394c427p-02",
		`{"transport":"inproc","local_rows":597,"remote_rows":240,"remote_bytes":12120,"wire_bytes":13528,"messages":16,"peers":[{"from":0,"to":1,"rows":88,"bytes":4552,"wire_bytes":5128,"messages":8},{"from":1,"to":0,"rows":152,"bytes":7568,"wire_bytes":8400,"messages":8}]}`},
	"exact/tcp": {"0x1.203f0d9d16f66p+00 0x1.b2e9f682bf784p-01 0x1.2b006979c0d2fp-01 0x1.c5e46b394c427p-02",
		`{"transport":"tcp","local_rows":597,"remote_rows":240,"remote_bytes":12120,"wire_bytes":13528,"messages":16,"peers":[{"from":0,"to":1,"rows":88,"bytes":4552,"wire_bytes":5128,"messages":8},{"from":1,"to":0,"rows":152,"bytes":7568,"wire_bytes":8400,"messages":8}]}`},
	"local/inproc": {"0x1.1a785e5fd1133p+00 0x1.a0eb6fa50e241p-01 0x1.2aa0d95d9ace5p-01 0x1.c808b8704a70ap-02",
		`{"transport":"inproc","local_rows":664,"remote_rows":120,"remote_bytes":7680,"wire_bytes":8384,"messages":8,"peers":[{"from":0,"to":1,"rows":59,"bytes":3776,"wire_bytes":4124,"messages":4},{"from":1,"to":0,"rows":61,"bytes":3904,"wire_bytes":4260,"messages":4}]}`},
}

// pinnedSchedule moves n and (s, t) both ways, so every epoch after the
// first is trained by a re-launched engine.
var pinnedSchedule = []Config{
	{Procs: 1, SampleCores: 1, TrainCores: 1},
	{Procs: 2, SampleCores: 1, TrainCores: 1},
	{Procs: 1, SampleCores: 2, TrainCores: 2},
	{Procs: 2, SampleCores: 2, TrainCores: 1},
}

func TestTrainerMatchesPinnedParent(t *testing.T) {
	for key, want := range pinnedTrainerRuns {
		regime, transport, _ := strings.Cut(key, "/")
		opts := GNNTrainerOptions{BatchSize: 32, LR: 0.01, Seed: 7, Transport: transport}
		var err error
		switch regime {
		case "single":
			opts.Dataset, err = datasets.Resolve("tiny", 7)
		default:
			spec := "tiny#3"
			if regime == "local" {
				spec = "tiny#4"
				opts.SamplingRegime, opts.LocalFanouts = "local", []int{4, 4}
			}
			var ss *graph.ShardSet
			if ss, err = datasets.ResolveShards(spec, 7); err == nil {
				t.Cleanup(func() { ss.Close() })
				opts.Shards = ss
				opts.Dataset, err = ss.Skeleton()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		ds := opts.Dataset
		opts.Sampler = sampler.NewNeighbor(ds.Graph, []int{4, 4})
		opts.Model = nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 7}
		tr, err := NewGNNTrainer(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range pinnedSchedule {
			if _, err := tr.Step(context.Background(), cfg, 1); err != nil {
				t.Fatalf("%s at %s: %v", key, cfg, err)
			}
		}
		var losses []string
		for _, l := range tr.LossHistory() {
			losses = append(losses, strconv.FormatFloat(l, 'x', -1, 64))
		}
		var exchange []byte
		if st := tr.ExchangeStats(); st != nil {
			if exchange, err = json.Marshal(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(losses, " "); got != want[0] {
			t.Errorf("%s: losses %s, want the parent's %s", key, got, want[0])
		}
		if string(exchange) != want[1] {
			t.Errorf("%s: exchange %s, want the parent's %s", key, exchange, want[1])
		}
	}
}
