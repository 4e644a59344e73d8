package serve

import (
	"math"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// Packing is lossless over fp16-exact rows: a Get returns the very bits
// a Put received, for even and odd widths.
func TestHalfCacheLosslessRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8, 17} {
		c := newHalfCache(NewFeatureCache(1<<20), dim)
		row := make([]float32, dim)
		for i := range row {
			row[i] = half.Round(float32(i)*0.37 - 2.5)
		}
		c.Put(5, row)
		got, ok := c.Get(5, nil)
		if !ok {
			t.Fatalf("dim %d: packed row missing", dim)
		}
		for i := range row {
			if math.Float32bits(got[i]) != math.Float32bits(row[i]) {
				t.Fatalf("dim %d: element %d round-tripped %v -> %v", dim, i, row[i], got[i])
			}
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
		c.Put(6, edge)
		got, ok = c.Get(6, nil)
		if !ok {
			t.Fatal("edge row missing")
		}
		for i := range edge {
			if math.Float32bits(got[i]) != math.Float32bits(edge[i]) {
				t.Fatalf("dim %d: edge element %d round-tripped %#08x -> %#08x",
					dim, i, math.Float32bits(edge[i]), math.Float32bits(got[i]))
			}
		}
		if c.Close() != nil {
			t.Fatal("close")
		}
	}
}

// The packing win: under one byte budget the packed cache holds ~2× the
// rows of the plain cache: budget / (stored row bytes + entry overhead).
func TestHalfCacheCapacityWin(t *testing.T) {
	const dim = 64
	const capBytes = int64(40 * (dim*4 + cacheEntryOverheadBytes)) // 40 fp32 rows
	row := make([]float32, dim)
	for i := range row {
		row[i] = half.Round(float32(i) * 0.25)
	}
	fill := func(c Cache) int {
		for id := graph.NodeID(0); id < 1000; id++ {
			c.Put(id, row)
		}
		return c.Stats().Entries
	}
	plain := fill(NewFeatureCache(capBytes))
	packed := fill(newHalfCache(NewFeatureCache(capBytes), dim))
	capacity := func(dt graph.FeatDtype) int64 {
		return capBytes / (StoredRowBytes(dim, dt) + cacheEntryOverheadBytes)
	}
	if int64(plain) != capacity(graph.DtypeF32) {
		t.Fatalf("plain entries %d, predicted %d", plain, capacity(graph.DtypeF32))
	}
	if int64(packed) != capacity(graph.DtypeF16) {
		t.Fatalf("packed entries %d, predicted %d", packed, capacity(graph.DtypeF16))
	}
	if float64(packed) < 1.5*float64(plain) {
		t.Fatalf("packed cache holds %d rows vs %d plain — no capacity win", packed, plain)
	}
}

// Width-mismatched rows are refused rather than stored corrupt, and a
// packed-width mismatch inside the inner cache misses cleanly.
func TestHalfCacheWidthGuard(t *testing.T) {
	inner := NewFeatureCache(1 << 20)
	c := newHalfCache(inner, 4)
	c.Put(1, make([]float32, 3)) // wrong width: dropped
	if _, ok := c.Get(1, nil); ok {
		t.Fatal("mismatched-width row was cached")
	}
	inner.Put(2, make([]float32, 7)) // foreign entry of the wrong packed width
	if _, ok := c.Get(2, nil); ok {
		t.Fatal("wrong packed width served")
	}
}

// f16Tagged marks a source's rows as fp16-exact, as the lazy and shard
// sources do for an fp16 store.
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
