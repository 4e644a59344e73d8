package tensor

import (
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool used to parallelise kernels. A Pool with
// Workers == 1 executes everything inline, which keeps single-core runs
// free of goroutine overhead and makes results reproducible regardless of
// scheduling.
//
// A Pool models the "cores" assigned to a stage (sampling cores or
// training cores in ARGO's terminology): a kernel dispatched on a Pool
// never uses more concurrent goroutines than Workers.
type Pool struct {
	workers int
}

// NewPool returns a pool that runs kernels on at most workers goroutines.
// workers < 1 is treated as 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// StealFactor oversubscribes the work-stealing dispatch: a weighted range
// is cut into up to StealFactor chunks per worker, so a worker that lands
// on a heavy chunk (a hub row, an OS preemption) does not stall the whole
// kernel — the remaining chunks drain through the shared counter.
const StealFactor = 4

// AppendSplitWeighted appends chunk boundaries for [0, n) to dst such
// that each chunk carries approximately total/parts of the summed
// per-item cost, and returns the extended slice. The boundaries are a
// running prefix sum cut at the cost quantiles: chunk k is
// [b[k], b[k+1]), b[0] == 0, b[len-1] == n, strictly increasing (empty
// chunks are elided, so heavily skewed costs may yield fewer than parts
// chunks — a single hub row heavier than the quantile width gets a chunk
// of its own and nothing else).
//
// cost(i) must be stable across calls; negative costs count as 0. A nil
// cost, or an all-zero total, falls back to equal-count chunks. The
// result depends only on (n, parts, cost) — never on scheduling — which
// is what keeps weighted kernels bit-deterministic: rows never migrate
// between chunks for a fixed worker count.
func AppendSplitWeighted(dst []int, n, parts int, cost func(i int) int) []int {
	dst = append(dst, 0)
	if n <= 0 {
		return dst
	}
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return append(dst, n)
	}
	var total int64
	if cost != nil {
		for i := 0; i < n; i++ {
			if c := cost(i); c > 0 {
				total += int64(c)
			}
		}
	}
	if total == 0 {
		// Uniform (or unknown) cost: equal-count chunks.
		chunk := (n + parts - 1) / parts
		for lo := chunk; lo < n; lo += chunk {
			dst = append(dst, lo)
		}
		return append(dst, n)
	}
	var acc int64
	k := 1
	for i := 0; i < n && k < parts; i++ {
		if c := cost(i); c > 0 {
			acc += int64(c)
		}
		// Crossing one or more cost quantiles ends the chunk after row i.
		// A hub row can cross several at once; the boundary is appended
		// only once (strictly increasing), which is exactly the "hub gets
		// its own chunk" behaviour.
		cut := false
		for k < parts && acc*int64(parts) >= total*int64(k) {
			cut = true
			k++
		}
		if cut && i+1 < n && i+1 > dst[len(dst)-1] {
			dst = append(dst, i+1)
		}
	}
	return append(dst, n)
}

// ParallelChunks dispatches the chunks described by bounds (as produced
// by AppendSplitWeighted: bounds[k] to bounds[k+1] is chunk k) over the pool's
// workers with work-stealing: workers pull the next chunk index from a
// shared atomic counter, so a worker stuck on an expensive chunk never
// blocks the others from draining the rest. Which worker runs a chunk is
// scheduling-dependent, but chunk contents are not — callers that keep
// per-row reductions inside fn get bit-identical results regardless of
// stealing order.
func (p *Pool) ParallelChunks(bounds []int, fn func(lo, hi int)) {
	nc := len(bounds) - 1
	if nc <= 0 {
		return
	}
	w := p.Workers()
	if w > nc {
		w = nc
	}
	if w == 1 {
		for c := 0; c < nc; c++ {
			fn(bounds[c], bounds[c+1])
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= nc {
					return
				}
				fn(bounds[c], bounds[c+1])
			}
		}()
	}
	wg.Wait()
}

// boundsScratch recycles the small boundary slices ParallelWeighted cuts
// per dispatch, so weighted kernels stay allocation-free in steady state.
var boundsScratch = sync.Pool{New: func() any { return new([]int) }}

// ParallelWeighted splits [0, n) into cost-balanced chunks (up to
// StealFactor per worker; see AppendSplitWeighted) and dispatches them
// with work-stealing. cost(i) is the relative weight of item i — for
// graph aggregation, the row's degree — and a nil cost means uniform.
// Per-item results are bit-identical to a serial run as long as fn keeps
// each item's reduction inside one invocation, because chunk boundaries
// are a pure function of (n, Workers, cost).
func (p *Pool) ParallelWeighted(n int, cost func(i int) int, fn func(lo, hi int)) {
	w := p.Workers()
	if n <= 0 {
		return
	}
	if w == 1 || n == 1 {
		fn(0, n)
		return
	}
	sp := boundsScratch.Get().(*[]int)
	bounds := AppendSplitWeighted((*sp)[:0], n, w*StealFactor, cost)
	p.ParallelChunks(bounds, fn)
	*sp = bounds[:0]
	boundsScratch.Put(sp)
}
