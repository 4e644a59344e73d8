package main

import (
	"regexp"
	"testing"
)

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchema holds the program to BENCHMARK.json: the same workloads,
// and on every workload exactly the end-to-end metrics untraced and
// exactly the per-layer metrics traced, under legal names. It runs
// every workload on tiny inputs, so it also smoke-tests every code
// path, the correctness checks included.
func TestSchema(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(want[false]) != len(sp.EndToEnd) || len(want[true]) != len(sp.PerLayer) {
		t.Fatal("BENCHMARK.json names a metric twice")
	}
	for _, names := range want {
		for name := range names {
			if !legalName.MatchString(name) {
				t.Errorf("illegal metric name %q", name)
			}
		}
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !legalName.MatchString(w.name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, sp.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			rec, err := execute(&workloads[i], options{
				workload: w.name, seed: 7, seconds: 0.05, trace: traced, quick: true, tmp: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			if len(rec.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d",
					w.name, traced, len(rec.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				got, ok := rec.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, got.Value)
				}
			}
		}
	}
}
