package tensor

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// splitWeighted is AppendSplitWeighted into a fresh slice.
func splitWeighted(n, parts int, cost func(i int) int) []int {
	return AppendSplitWeighted(nil, n, parts, cost)
}

// checkBounds asserts the structural invariants every split must hold:
// starts at 0, ends at n, strictly increasing.
func checkBounds(t *testing.T, bounds []int, n int) {
	t.Helper()
	if len(bounds) < 2 && n > 0 {
		t.Fatalf("bounds %v too short for n=%d", bounds, n)
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds %v must span [0,%d]", bounds, n)
	}
	for k := 1; k < len(bounds); k++ {
		if bounds[k] <= bounds[k-1] {
			t.Fatalf("bounds %v not strictly increasing at %d", bounds, k)
		}
	}
}

func TestSplitWeightedUniformEqualsEqualCount(t *testing.T) {
	for _, cost := range []func(int) int{nil, func(int) int { return 3 }} {
		bounds := splitWeighted(100, 4, cost)
		checkBounds(t, bounds, 100)
		if len(bounds) != 5 {
			t.Fatalf("uniform cost: bounds %v, want 4 chunks", bounds)
		}
		for k := 1; k < len(bounds); k++ {
			if sz := bounds[k] - bounds[k-1]; sz != 25 {
				t.Fatalf("uniform cost: chunk %d has %d items, want 25 (%v)", k-1, sz, bounds)
			}
		}
	}
}

func TestSplitWeightedDegenerateInputs(t *testing.T) {
	if got := splitWeighted(0, 4, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("n=0: %v", got)
	}
	if got := splitWeighted(-3, 4, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("n<0: %v", got)
	}
	if got := splitWeighted(5, 1, nil); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Fatalf("parts=1: %v", got)
	}
	if got := splitWeighted(5, 0, nil); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Fatalf("parts=0: %v", got)
	}
	// parts > n clamps to n: one item per chunk.
	got := splitWeighted(3, 16, nil)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("parts>n: %v", got)
	}
	// All-zero (and negative) costs fall back to equal-count chunks.
	zero := splitWeighted(100, 4, func(int) int { return 0 })
	neg := splitWeighted(100, 4, func(int) int { return -7 })
	uniform := splitWeighted(100, 4, nil)
	if !reflect.DeepEqual(zero, uniform) || !reflect.DeepEqual(neg, uniform) {
		t.Fatalf("zero/negative cost %v / %v, want uniform %v", zero, neg, uniform)
	}
}

func TestSplitWeightedHubGetsOwnChunk(t *testing.T) {
	// One hub carrying ~97% of the total cost: the hub's chunk should
	// hold (essentially) only the hub, and the light rows spread over
	// the remaining chunks instead of serialising behind it.
	n, hub := 1000, 500
	cost := func(i int) int {
		if i == hub {
			return 100000
		}
		return 3
	}
	bounds := splitWeighted(n, 8, cost)
	checkBounds(t, bounds, n)
	for k := 1; k < len(bounds); k++ {
		lo, hi := bounds[k-1], bounds[k]
		if lo <= hub && hub < hi {
			// The chunk containing the hub must end right after it —
			// no light rows queued behind the heavy one.
			if hi != hub+1 {
				t.Fatalf("hub chunk [%d,%d) extends past the hub row %d: %v", lo, hi, hub, bounds)
			}
			return
		}
	}
	t.Fatalf("no chunk contains the hub: %v", bounds)
}

func TestSplitWeightedBalancesPowerLawCost(t *testing.T) {
	// On a skewed cost vector, the weighted split's max chunk cost must
	// beat the equal-count split's.
	rng := rand.New(rand.NewSource(1))
	n := 4096
	cost := make([]int, n)
	for i := range cost {
		cost[i] = 1
		if rng.Float64() < 0.01 {
			cost[i] = 1 + rng.Intn(2000) // hub
		}
	}
	costFn := func(i int) int { return cost[i] }
	maxChunk := func(bounds []int) int64 {
		var worst int64
		for k := 1; k < len(bounds); k++ {
			var s int64
			for i := bounds[k-1]; i < bounds[k]; i++ {
				s += int64(cost[i])
			}
			if s > worst {
				worst = s
			}
		}
		return worst
	}
	weighted := splitWeighted(n, 8, costFn)
	equal := splitWeighted(n, 8, nil)
	checkBounds(t, weighted, n)
	if w, e := maxChunk(weighted), maxChunk(equal); w >= e {
		t.Fatalf("weighted max chunk cost %d not better than equal-count %d", w, e)
	}
}

func TestSplitWeightedDeterministic(t *testing.T) {
	cost := func(i int) int { return (i*i)%97 + 1 }
	a := splitWeighted(1000, 16, cost)
	for r := 0; r < 10; r++ {
		if b := splitWeighted(1000, 16, cost); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d differs: %v vs %v", r, a, b)
		}
	}
}

func TestParallelWeightedCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		n := 1003
		hits := make([]int32, n)
		p.ParallelWeighted(n, func(i int) int { return i % 13 }, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestParallelWeightedDeterministicChunking(t *testing.T) {
	// For a fixed worker count, the set of (lo,hi) chunks handed to fn
	// must be identical across dispatches — the property that keeps
	// per-chunk float reductions bit-stable under work-stealing.
	p := NewPool(4)
	cost := func(i int) int { return 1 + i%29 }
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		chunks := make(map[[2]int]bool)
		p.ParallelWeighted(777, cost, func(lo, hi int) {
			mu.Lock()
			chunks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return chunks
	}
	first := collect()
	for r := 0; r < 20; r++ {
		if got := collect(); !reflect.DeepEqual(got, first) {
			t.Fatalf("dispatch %d produced different chunks: %v vs %v", r, got, first)
		}
	}
}

func TestParallelWeightedDegenerate(t *testing.T) {
	p := NewPool(4)
	called := false
	p.ParallelWeighted(0, nil, func(lo, hi int) { called = true })
	if called {
		t.Fatal("n=0 must not invoke fn")
	}
	p.ParallelWeighted(1, nil, func(lo, hi int) {
		called = true
		if lo != 0 || hi != 1 {
			t.Fatalf("n=1: got [%d,%d)", lo, hi)
		}
	})
	if !called {
		t.Fatal("n=1 must invoke fn once")
	}
}

func TestParallelChunksEmptyAndSerial(t *testing.T) {
	p := NewPool(4)
	p.ParallelChunks(nil, func(lo, hi int) { t.Fatal("nil bounds must be a no-op") })
	p.ParallelChunks([]int{0}, func(lo, hi int) { t.Fatal("single-bound must be a no-op") })
	// Workers=1 runs chunks in order.
	var got []int
	NewPool(1).ParallelChunks([]int{0, 2, 5, 9}, func(lo, hi int) { got = append(got, lo, hi) })
	if !reflect.DeepEqual(got, []int{0, 2, 2, 5, 5, 9}) {
		t.Fatalf("serial chunk order: %v", got)
	}
}

// TestParallelWeightedConcurrentDispatch exercises the shared bounds
// scratch pool from many goroutines at once; run with -race.
func TestParallelWeightedConcurrentDispatch(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 500 + g*37
			sum := make([]int64, n)
			for r := 0; r < 25; r++ {
				p.ParallelWeighted(n, func(i int) int { return i%7 + 1 }, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt64(&sum[i], 1)
					}
				})
			}
			for i, s := range sum {
				if s != 25 {
					t.Errorf("goroutine %d: index %d visited %d times, want 25", g, i, s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
