// Command benchmark is the repository's benchmark: six workloads on the
// real training engine and serving stack, timed by wall clock, with a
// separate traced pass that times the calls into each layer from this
// package's own files. See README.md.
//
// One invocation runs one workload:
//
//	bash benchmark/run.sh --workload train_single --seed 7 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// instance is one workload after set-up. slice runs one measured slice
// of operations; trace spends about budget on the per-layer numbers;
// verify runs the checks that need the whole run.
type instance interface {
	slice() (sliceSample, error)
	trace(budget time.Duration) error
	verify() error
	close()
}

type workload struct {
	name  string
	op    string // what one operation is
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"train_single", "epoch", func(e *env) (instance, error) {
		return setupTrain(e, trainSpec{dataset: "arxiv-sim@x16", trainCut: 512, fanouts: []int{15, 10, 5},
			procs: 1, replay: true})
	}},
	{"train_autotune", "tuned run", setupAutotune},
	{"train_shard_exact", "epoch", func(e *env) (instance, error) {
		return setupTrain(e, trainSpec{dataset: "arxiv-sim@x16", trainCut: 2048, fanouts: []int{10, 5},
			procs: 2, shards: 4, replay: true})
	}},
	{"train_shard_local", "epoch", func(e *env) (instance, error) {
		return setupTrain(e, trainSpec{dataset: "arxiv-sim@x16", trainCut: 2048, fanouts: []int{10, 5},
			procs: 2, shards: 4, fp16: true, local: true})
	}},
	{"serve_zipf", "request", func(e *env) (instance, error) {
		return setupServe(e, serveSpec{dataset: "arxiv-sim@x16", zipf: true, sliceReqs: 50, warmReqs: 200})
	}},
	{"serve_uniform", "request", func(e *env) (instance, error) {
		return setupServe(e, serveSpec{dataset: "arxiv-sim@x16", sliceReqs: 50, warmReqs: 100})
	}},
}

// metricDef names one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json; the schema test keeps them
// equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"items_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"argo.tuner_overhead_s", "s"},
	{"argo.search_share", "ratio"},
	{"argo.tuned_epoch_s", "s"},
	{"argo.tuned_speedup", "ratio"},
	{"argo.mispick_share", "ratio"},
	{"core.relaunch_s", "s"},
	{"core.relaunches", "count"},
	{"engine.epoch_s_p50", "s"},
	{"engine.epoch_s_p90", "s"},
	{"engine.overlap_factor", "ratio"},
	{"engine.alloc_mb_per_epoch", "MB"},
	{"engine.allocs_per_iter", "count"},
	{"engine.iters_per_epoch", "count"},
	{"engine.final_loss", "loss"},
	{"sampler.sample_s", "s"},
	{"sampler.busy_s", "s"},
	{"sampler.edges_per_s", "1/s"},
	{"sampler.sampled_edges_per_epoch", "count"},
	{"sampler.input_nodes_per_iter", "count"},
	{"nn.forward_s", "s"},
	{"nn.loss_s", "s"},
	{"nn.backward_s", "s"},
	{"nn.optimizer_s", "s"},
	{"nn.infer_ms", "ms"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"ddp.gather_s", "s"},
	{"ddp.gather_busy_s", "s"},
	{"ddp.scatter_busy_s", "s"},
	{"ddp.allreduce_s", "s"},
	{"ddp.wire_mb_per_epoch", "MB"},
	{"ddp.messages_per_epoch", "count"},
	{"ddp.remote_rows_per_epoch", "count"},
	{"ddp.grad_rows_per_epoch", "count"},
	{"ddp.tcp_call_us", "us"},
	{"ddp.inproc_call_us", "us"},
	{"ddp.tcp_over_inproc_epoch", "ratio"},
	{"datasets.build_s", "s"},
	{"graph.shard_write_s", "s"},
	{"graph.shard_open_s", "s"},
	{"graph.store_write_s", "s"},
	{"graph.store_open_s", "s"},
	{"serve.req_p50_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.evictions_per_req", "count"},
	{"serve.source_rows_per_req", "count"},
	{"serve.source_fetch_ms_per_req", "ms"},
	{"serve.batch_mean_nodes", "count"},
	{"serve.batch_mean_requests", "count"},
	{"serve.flush_window_share", "ratio"},
	{"serve.frontier_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.batcher_p50_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"harness.calib_ms_min", "ms"},
	{"harness.calib_spread", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	tmp      string
	out      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result as -out appends it, with what is needed to
// compare it with another run.
type record struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Host      fingerprint `json:"host"`
	CalibMs   []float64   `json:"calib_ms"`    // the noise canary's samples
	SliceMs   []float64   `json:"slice_ms"`    // each measured slice's median operation time
	SliceRate []float64   `json:"slice_per_s"` // each measured slice's items per second
	Notes     []string    `json:"notes,omitempty"`
	result
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

func main() {
	var o options
	var trace int
	var compare, list bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 7, "seed of model initialisation, batch shuffles, neighbor sampling and request streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs: a smoke run of every code path in about a second")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the stores a run writes")
	flag.StringVar(&o.out, "out", "", "directory to append results.jsonl to and, with -trace 1, write the Chrome trace into")
	flag.BoolVar(&compare, "compare", false, "compare result files: -compare A.jsonl [B.jsonl]")
	flag.BoolVar(&list, "list", false, "print run_seconds and the workload names of BENCHMARK.json, one per line")
	flag.Parse()
	o.trace = trace != 0

	if list {
		sp, err := readSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(sp.RunSeconds)
		for _, w := range sp.Workloads {
			fmt.Println(w.Name)
		}
		return
	}

	if compare {
		os.Exit(compareMain(flag.Args()))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; the workloads are:\n", o.workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %s\n", w.name)
		}
		os.Exit(2)
	}
	rec, err := execute(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED CHECK: %s\n", w.name, n)
	}
	if o.out != "" {
		if err := appendRecord(filepath.Join(o.out, "results.jsonl"), rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// execute sets the workload up, measures it for o.seconds, checks it,
// and returns what it reports.
func execute(w *workload, o options) (record, error) {
	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: hostFingerprint()}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return rec, err
	}
	tmp, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(tmp)
	e := newEnv(o, tmp)
	can := newCanary(o.quick)

	// Set-up is everything before the first timed operation: input
	// generation, store write and open, construction, warm-up. It is
	// repeated so that setup_s is a median; the last one is measured.
	repeats := setupRepeats
	if o.trace || o.quick {
		repeats = 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		can.run()
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return rec, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	window := time.Duration(o.seconds * float64(time.Second))
	var slices []sliceSample
	if o.trace {
		can.run()
		if err := inst.trace(window); err != nil {
			return rec, fmt.Errorf("traced pass: %w", err)
		}
		can.run()
	} else {
		deadline := time.Now().Add(window)
		for len(slices) == 0 || time.Now().Before(deadline) {
			can.run()
			s, err := inst.slice()
			if err != nil {
				return rec, fmt.Errorf("measured slice: %w", err)
			}
			slices = append(slices, s)
		}
	}
	if err := inst.verify(); err != nil {
		return rec, fmt.Errorf("verification: %w", err)
	}
	can.report(e)

	defs := perLayer
	if !o.trace {
		defs = endToEnd
		e.set("setup_s", median(setups))
		// Timing metrics are best-of-slices: on a shared host whose
		// neighbours slow a run by a tenth to a third for seconds to
		// minutes at a time, the quietest slice repeats from run to run
		// and a pooled median does not (README.md, "Estimator").
		var mid, rate []float64
		var wall time.Duration
		for _, s := range slices {
			mid = append(mid, median(s.opMs))
			rate = append(rate, ratio(float64(s.items), s.wall.Seconds()))
			wall += s.wall
		}
		ops := pooledOps(slices)
		rec.SliceMs, rec.SliceRate = mid, rate
		e.set("op_ms", minOf(mid))
		e.set("items_per_s", maxOf(rate))
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d %ss in %d slices over %.2f s (min %.3f ms, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms), set-up %.3f s\n",
			w.name, len(ops), w.op, len(slices), wall.Seconds(), minOf(ops), median(ops),
			percentile(ops, 0.9), percentile(ops, 0.99), setups)
	}
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{Value: e.values[d.name], Unit: d.unit}
	}
	rec.Attempted, rec.Failed = e.attempted.Load(), e.failed.Load()
	rec.Correct = rec.Failed == 0
	rec.Notes = e.notes
	rec.CalibMs = can.ms
	if o.trace && o.out != "" {
		if err := e.rec.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
