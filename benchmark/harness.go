package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is what one run of one workload shares between the harness and
// the workload: the inputs' seed and size, the span recorder of a
// traced run, and the values the run reports.
type env struct {
	seed   int64
	quick  bool
	traced bool
	tmp    string // scratch directory of this run, removed when it ends

	rec *recorder // nil unless traced

	mu     sync.Mutex
	values map[string]float64 // metric name → value
	notes  []string           // correctness violations, one line each

	attempted atomic.Int64
	failed    atomic.Int64
}

func newEnv(o options, tmp string) *env {
	e := &env{seed: o.seed, quick: o.quick, traced: o.trace, tmp: tmp, values: map[string]float64{}}
	if o.trace {
		e.rec = newRecorder(o.workload)
	}
	return e
}

func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.values[name] = v
	e.mu.Unlock()
}

// stage times fn and reports it as the set-up stage `name`.
func (e *env) stage(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	e.set(name, time.Since(t0).Seconds())
	return err
}

// violation records one failed correctness check. Any violation fails
// the run.
func (e *env) violation(format string, args ...any) {
	e.failed.Add(1)
	e.mu.Lock()
	if len(e.notes) < 20 {
		e.notes = append(e.notes, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// sliceSample is what one measured slice reports: the wall time of
// each operation, the work items they completed (train targets, served
// nodes) and the wall time of the whole slice.
type sliceSample struct {
	opMs  []float64
	items int64
	wall  time.Duration
}

func (s *sliceSample) add(d time.Duration, items int) {
	s.opMs = append(s.opMs, d.Seconds()*1e3)
	s.items += int64(items)
	s.wall += d
}

// pooledOps concatenates the operation times of all slices.
func pooledOps(slices []sliceSample) []float64 {
	var out []float64
	for _, s := range slices {
		out = append(out, s.opMs...)
	}
	return out
}

// ---- noise canary ----

// canary is a fixed gather-and-sum over a table larger than the
// last-level cache. It runs before every slice; when its own timing
// moves, the host moved, not the program under test.
type canary struct {
	table []float32
	idx   []int32
	ms    []float64
	sink  float32
}

func newCanary(quick bool) *canary {
	words, picks := 8<<20, 1<<20 // 32 MB table, ~20 ms of random row reads
	if quick {
		words, picks = 1<<16, 1<<12
	}
	c := &canary{table: make([]float32, words), idx: make([]int32, picks)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.idx {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.idx[i] = int32(x % uint64(words-16))
	}
	for i := range c.table {
		c.table[i] = float32(i & 7)
	}
	return c
}

func (c *canary) run() {
	t0 := time.Now()
	var s float32
	for _, i := range c.idx {
		row := c.table[i : i+16]
		for _, v := range row {
			s += v
		}
	}
	c.sink += s
	c.ms = append(c.ms, time.Since(t0).Seconds()*1e3)
}

// report stores harness.calib_* and warns on a noisy host.
func (c *canary) report(e *env) {
	lo := minOf(c.ms)
	e.set("harness.calib_ms_min", lo)
	sp := ratio(percentile(c.ms, 0.9)-lo, lo)
	e.set("harness.calib_spread", sp)
	if sp > 0.25 && !e.quick {
		fmt.Fprintf(os.Stderr, "benchmark: noisy run: canary p90 is %.0f%% above its minimum (%.2f ms over %d samples)\n",
			sp*100, lo, len(c.ms))
	}
}

// ---- host fingerprint ----

type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// ---- spans ----

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	name   string
	parent string // name of the span that caused it ("" for a root)
	track  int    // replica or client the call ran on
	start  time.Duration
	end    time.Duration
}

// maxSpans bounds the trace kept in memory; later spans still count
// towards busy time but are not stored.
const maxSpans = 200_000

type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	// parent is the span new child spans are attributed to: the epoch
	// or replay step in flight.
	parent atomic.Value // string
}

func newRecorder(workload string) *recorder {
	r := &recorder{workload: workload, t0: time.Now()}
	r.parent.Store("")
	return r
}

// timer accumulates the busy time and call count of one decorated
// call site.
type timer struct {
	nanos atomic.Int64
	calls atomic.Int64
}

// take returns the seconds and calls accumulated since the previous
// take, and starts over.
func (t *timer) take() (secs float64, calls int64) {
	return float64(t.nanos.Swap(0)) / 1e9, t.calls.Swap(0)
}

// observe records one call [start, now) as a span under the current
// parent and adds it to t. A nil recorder only accumulates.
func (r *recorder) observe(t *timer, name string, track int, start time.Time) {
	end := time.Now()
	if t != nil {
		t.nanos.Add(int64(end.Sub(start)))
		t.calls.Add(1)
	}
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{
			name: name, parent: r.parent.Load().(string), track: track,
			start: start.Sub(r.t0), end: end.Sub(r.t0),
		})
	}
	r.mu.Unlock()
}

// under runs fn as the root span `name`; calls observed meanwhile are
// its children.
func (r *recorder) under(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	prev := r.parent.Load().(string)
	r.parent.Store(name)
	start := time.Now()
	err := fn()
	r.parent.Store(prev)
	r.observe(nil, name, 0, start)
	return err
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
func (r *recorder) write(path string) error {
	r.mu.Lock()
	events := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  math.Max(float64((s.end-s.start).Nanoseconds())/1e3, 0.001),
			Args: map[string]string{"parent": s.parent, "workload": r.workload},
		}
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
