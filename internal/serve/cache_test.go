package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

func row(vals ...float32) []float32 { return vals }

// lruOf builds an lru cache holding exactly slots rows of dim floats.
func lruOf(t *testing.T, slots, dim int) Cache {
	t.Helper()
	c, err := NewCache(PolicyLRU, CacheConfig{
		CapBytes: int64(slots) * (int64(dim)*4 + cacheEntryOverheadBytes),
		RowBytes: int64(dim) * 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFeatureCacheHitMissEvict(t *testing.T) {
	// Two 4-float rows fit; the third evicts the LRU one.
	c := lruOf(t, 2, 4)
	if _, ok := c.Get(1, nil); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(1, row(1, 1, 1, 1))
	c.Put(2, row(2, 2, 2, 2))
	got, ok := c.Get(1, nil)
	if !ok || got[0] != 1 {
		t.Fatalf("hit on 1: ok=%v got=%v", ok, got)
	}
	// 1 is now MRU; inserting 3 must evict 2.
	c.Put(3, row(3, 3, 3, 3))
	if _, ok := c.Get(2, nil); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := c.Get(1, nil); !ok {
		t.Fatal("1 should have survived (recently used)")
	}
	if got, ok := c.Get(3, nil); !ok || got[3] != 3 {
		t.Fatalf("3 should be cached in the reused slot: ok=%v got=%v", ok, got)
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 3 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 3/2", s.Hits, s.Misses)
	}
	if s.Entries != 2 || s.UsedBytes != s.CapBytes {
		t.Fatalf("entries=%d used=%d cap=%d", s.Entries, s.UsedBytes, s.CapBytes)
	}
}

func TestFeatureCacheCopiesBothWays(t *testing.T) {
	c := lruOf(t, 100, 3)
	src := row(1, 2, 3)
	c.Put(7, src)
	src[0] = 99 // caller mutates its slice after Put
	got, ok := c.Get(7, nil)
	if !ok || got[0] != 1 {
		t.Fatalf("cache must own its storage: got %v", got)
	}
	got[1] = 99 // caller mutates the returned slice
	again, _ := c.Get(7, nil)
	if again[1] != 2 {
		t.Fatalf("Get must return a copy: got %v", again)
	}
	// dst reuse path.
	dst := make([]float32, 3)
	out, ok := c.Get(7, dst)
	if !ok || &out[0] != &dst[0] {
		t.Fatal("Get should fill the provided dst when it fits")
	}
}

func TestFeatureCacheDisabledAndOversized(t *testing.T) {
	off, err := NewCache(PolicyLRU, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	off.Put(1, row(1))
	if _, ok := off.Get(1, nil); ok {
		t.Fatal("capBytes<=0 must disable caching")
	}
	small, err := NewCache(PolicyLRU, CacheConfig{CapBytes: 8, RowBytes: 4}) // smaller than any entry
	if err != nil {
		t.Fatal(err)
	}
	small.Put(1, row(1))
	if s := small.Stats(); s.Entries != 0 {
		t.Fatal("oversized rows must not be cached")
	}
	if _, err := NewCache(PolicyLRU, CacheConfig{CapBytes: 1 << 10}); err == nil {
		t.Fatal("a budget without a row size was accepted")
	}
}

func TestFeatureCacheRefreshBumpsRecency(t *testing.T) {
	c := lruOf(t, 2, 1)
	c.Put(1, row(1))
	c.Put(2, row(2))
	c.Put(1, row(1)) // refresh: 1 becomes MRU without growing the cache
	c.Put(3, row(3)) // must evict 2, not 1
	if _, ok := c.Get(1, nil); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := c.Get(2, nil); ok {
		t.Fatal("LRU entry survived")
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
}

// Rows of any other width than the cache's, and ids no store can hold,
// are refused rather than stored corrupt — for both storage dtypes.
func TestHalfCacheWidthGuard(t *testing.T) {
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
		c, err := newRowCache(PolicyLRU, 1<<16, 4, dt)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(1, make([]float32, 3))
		c.Put(1, make([]float32, 5))
		c.Put(-1, make([]float32, 4))
		for _, id := range []graph.NodeID{1, -1} {
			if _, ok := c.Get(id, nil); ok {
				t.Fatalf("%v: row %d was cached", dt, id)
			}
		}
		if s := c.Stats(); s.Entries != 0 || s.UsedBytes != 0 {
			t.Fatalf("%v: refused rows are accounted: %+v", dt, s)
		}
		c.Put(1, row(1, 2, 3, 4))
		if got, ok := c.Get(1, nil); !ok || len(got) != 4 || got[3] != 4 {
			t.Fatalf("%v: right-width row after the refusals: %v, %v", dt, got, ok)
		}
	}
}

// fp16 storage is lossless over fp16-exact rows: a Get returns the very
// bits a Put received, for even and odd widths.
func TestHalfCacheLosslessRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8, 17} {
		c, err := newRowCache(PolicyTinyLFU, 1<<20, dim, graph.DtypeF16)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float32, dim)
		for i := range vals {
			vals[i] = half.Round(float32(i)*0.37 - 2.5)
		}
		// Negative zero, subnormals, and the range extremes survive too.
		edge := make([]float32, dim)
		edge[0] = float32(math.Copysign(0, -1))
		if dim > 1 {
			edge[1] = half.FromBits(0x0001) // smallest positive subnormal
		}
		if dim > 2 {
			edge[2] = -65504
		}
		c.Put(5, vals)
		c.Put(6, edge)
		for id, want := range map[graph.NodeID][]float32{5: vals, 6: edge} {
			got, ok := c.Get(id, nil)
			if !ok || len(got) != dim {
				t.Fatalf("dim %d: row %d missing or misshapen: %v", dim, id, got)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dim %d: row %d element %d round-tripped %#08x -> %#08x",
						dim, id, i, math.Float32bits(want[i]), math.Float32bits(got[i]))
				}
			}
		}
	}
}

// The fp16 win: under one byte budget the fp16 slab holds ~2× the rows
// of the fp32 one: budget / (stored row bytes + entry overhead).
func TestHalfCacheCapacityWin(t *testing.T) {
	const dim = 64
	const capBytes = int64(40 * (dim*4 + cacheEntryOverheadBytes)) // 40 fp32 rows
	vals := make([]float32, dim)
	for i := range vals {
		vals[i] = half.Round(float32(i) * 0.25)
	}
	entries := func(dt graph.FeatDtype) int {
		c, err := newRowCache(PolicyLRU, capBytes, dim, dt)
		if err != nil {
			t.Fatal(err)
		}
		for id := graph.NodeID(0); id < 1000; id++ {
			c.Put(id, vals)
		}
		if got := int64(c.Stats().Entries); got != capBytes/(StoredRowBytes(dim, dt)+cacheEntryOverheadBytes) {
			t.Fatalf("%v: %d entries, budget predicts %d", dt, got, capBytes/(StoredRowBytes(dim, dt)+cacheEntryOverheadBytes))
		}
		return c.Stats().Entries
	}
	plain, packed := entries(graph.DtypeF32), entries(graph.DtypeF16)
	if float64(packed) < 1.5*float64(plain) {
		t.Fatalf("fp16 cache holds %d rows vs %d fp32 — no capacity win", packed, plain)
	}
}

// f16Tagged marks a source's rows as fp16-exact, as the lazy source does
// for an fp16 store.
type f16Tagged struct{ FeatureSource }

func (f16Tagged) FeatDtype() graph.FeatDtype { return graph.DtypeF16 }

// Dtype detection: tagged sources report their dtype, untagged default
// to fp32.
func TestFeatureSourceDtype(t *testing.T) {
	src := NewMatrixFeatureSource(tensor.New(3, 2))
	if dt := FeatureSourceDtype(src); dt != graph.DtypeF32 {
		t.Fatalf("plain matrix source dtype %v", dt)
	}
	if dt := FeatureSourceDtype(f16Tagged{src}); dt != graph.DtypeF16 {
		t.Fatalf("tagged source dtype %v", dt)
	}
}

// refLRU is the reference the slab is checked against: true LRU order
// in a slice, most recent first.
type refLRU struct {
	slots int
	ids   []graph.NodeID
}

func (r *refLRU) touch(id graph.NodeID) bool {
	i := slices.Index(r.ids, id)
	if i < 0 {
		return false
	}
	r.ids = slices.Insert(slices.Delete(r.ids, i, i+1), 0, id)
	return true
}

func (r *refLRU) put(id graph.NodeID) (victim graph.NodeID, evicted bool) {
	if r.touch(id) {
		return 0, false
	}
	if len(r.ids) == r.slots {
		victim, evicted = r.ids[len(r.ids)-1], true
		r.ids = r.ids[:len(r.ids)-1]
	}
	r.ids = slices.Insert(r.ids, 0, id)
	return victim, evicted
}

// order walks the recency ring from most to least recently used.
func (c *rowCache) order() []graph.NodeID {
	var ids []graph.NodeID
	sentinel := int32(len(c.ids))
	for s := c.links[sentinel].next; s != sentinel; s = c.links[s].next {
		ids = append(ids, c.ids[s])
	}
	return ids
}

// Random Get/Put traces: after every operation the slab's recency order
// — hence its resident set and every future victim — equals the
// reference's, each hit returns the row that id was Put with, and the
// counters add up. Runs over both storage dtypes and a few shapes,
// including a one-slot cache.
func TestRowCacheMatchesReferenceLRU(t *testing.T) {
	rowOf := func(id graph.NodeID, dim int) []float32 {
		r := make([]float32, dim)
		for i := range r {
			r[i] = float32(int(id)*8 + i) // small integers: fp16-exact
		}
		return r
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots, dim, universe := 1+rng.Intn(12), 1+rng.Intn(5), 2+rng.Intn(40)
		dt := graph.FeatDtype(graph.DtypeF32)
		if seed%2 == 0 {
			dt = graph.DtypeF16
		}
		c, err := newRowCache(PolicyLRU, int64(slots)*(StoredRowBytes(dim, dt)+cacheEntryOverheadBytes), dim, dt)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLRU{slots: slots}
		var hits, misses, evictions int64
		for op := 0; op < 2000; op++ {
			id := graph.NodeID(rng.Intn(universe))
			if rng.Intn(2) == 0 {
				got, ok := c.Get(id, nil)
				if want := ref.touch(id); ok != want {
					t.Fatalf("seed %d op %d: Get(%d) hit=%v, reference %v", seed, op, id, ok, want)
				}
				if ok {
					hits++
					if !slices.Equal(got, rowOf(id, dim)) {
						t.Fatalf("seed %d op %d: Get(%d) = %v", seed, op, id, got)
					}
				} else {
					misses++
				}
			} else {
				before := c.order()
				c.Put(id, rowOf(id, dim))
				if victim, evicted := ref.put(id); evicted {
					evictions++
					if before[len(before)-1] != victim {
						t.Fatalf("seed %d op %d: evicted %d, reference evicts %d", seed, op, before[len(before)-1], victim)
					}
				}
			}
			if got := c.order(); !slices.Equal(got, ref.ids) {
				t.Fatalf("seed %d op %d: recency order %v, reference %v", seed, op, got, ref.ids)
			}
		}
		s := c.Stats()
		if s.Hits != hits || s.Misses != misses || s.Evictions != evictions || s.Entries != len(ref.ids) {
			t.Fatalf("seed %d: stats %+v, want hits=%d misses=%d evictions=%d entries=%d", seed, s, hits, misses, evictions, len(ref.ids))
		}
	}
}

// TestCacheCountersMatchParent pins the whole hit / miss / eviction /
// rejection sequence of both policies to what the five-file cache layer
// this slab replaced produced, recorded from it before the rewrite: 400
// two-node requests (Zipf(2.0) and uniform, seed 7) through serve.New
// on arxiv-sim@x16 with a 2-layer SAGE, 512 KiB, no batch window. True
// LRU order and the seedless sketch make every count a pure function of
// the request stream, so any deviation in victim choice, admission or
// slot accounting shows up here.
func TestCacheCountersMatchParent(t *testing.T) {
	if testing.Short() {
		t.Skip("four 400-request serving runs on arxiv-sim@x16 (≈5s)")
	}
	const seed = 7
	ds, err := datasets.Resolve("arxiv-sim@x16", seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewModel(nn.ModelSpec{
		Kind: nn.KindSAGE,
		Dims: []int{ds.Features.Cols, 16, ds.NumClasses},
		Seed: seed,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	type counters struct {
		hits, misses, evictions, rejections int64
		entries                             int
	}
	for _, tc := range []struct {
		policy, mix string
		want        counters
	}{
		{PolicyLRU, "zipf", counters{118613, 1130507, 1128869, 0, 1638}},
		{PolicyLRU, "uniform", counters{23327, 2613060, 2611422, 0, 1638}},
		{PolicyTinyLFU, "zipf", counters{279600, 969520, 94295, 873587, 1638}},
		{PolicyTinyLFU, "uniform", counters{187492, 2448895, 304413, 2142844, 1638}},
	} {
		gen, err := NewUniformGenerator(ds.Graph.NumNodes, seed)
		if tc.mix == "zipf" {
			gen, err = NewZipfGenerator(ds.Graph, seed, 2.0)
		}
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Source{Graph: ds.Graph, Features: NewMatrixFeatureSource(ds.Features)}, model,
			WithPolicy(tc.policy), WithCacheBytes(512<<10))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if _, err := srv.Batcher().Predict(NextBatch(gen, 2)); err != nil {
				t.Fatal(err)
			}
		}
		s := srv.Inferencer().CacheStats()
		srv.Close()
		if got := (counters{s.Hits, s.Misses, s.Evictions, s.Rejections, s.Entries}); got != tc.want {
			t.Errorf("%s/%s: counters %+v, the parent's were %+v", tc.policy, tc.mix, got, tc.want)
		}
	}
}
