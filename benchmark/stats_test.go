package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose: helpers must not rely on order
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	// p99 of 100 samples is the 99th value, not the 100th.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || minOf(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestMedianMinPool(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if lo, hi := minOf([]float64{4, 1, 3}), maxOf([]float64{1, 4, 3}); lo != 1 || hi != 4 {
		t.Errorf("min, max = %v, %v", lo, hi)
	}
	pooled := pooledOps([]sliceSample{{opMs: []float64{1, 2}}, {}, {opMs: []float64{3}}})
	if len(pooled) != 3 || pooled[2] != 3 {
		t.Errorf("pooledOps = %v", pooled)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, the rule the benchmark is
// accepted under.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got) // (8.25-2.75)/5.5
	}
	if spread([]float64{0, 0, 0}) != 0 {
		t.Error("spread of a zero median must be 0")
	}
}
