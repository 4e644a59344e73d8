package serve

import (
	"math"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor/half"
)

// halfCache fronts any policy cache with fp16 row packing: each stored
// row carries two fp16 values per float32 backing element, so the same
// byte budget holds roughly twice the rows. It is installed only over
// fp16 feature sources, whose rows are fp16-exact by the store
// invariant — packing is then lossless, and a Get returns the very bits
// a Put received, preserving served==direct bit-parity. The inner
// policy never knows: it sees ordinary (shorter) float32 rows, so
// admission, pinning, and byte accounting all work unchanged.
type halfCache struct {
	inner  Cache
	dim    int // unpacked row width
	packed int // float32 elements per stored row (2 fp16 each)
	// scratch packed-row buffers; Get/Put must stay concurrency-safe
	// without serialising on a single buffer.
	pool sync.Pool
}

// packedRowLen returns the float32 elements an fp16-packed row of the
// given width occupies (two values per element, odd tail padded).
func packedRowLen(dim int) int { return (dim + 1) / 2 }

// newHalfCache wraps inner with fp16 packing for rows of width dim.
func newHalfCache(inner Cache, dim int) Cache {
	hc := &halfCache{inner: inner, dim: dim, packed: packedRowLen(dim)}
	hc.pool.New = func() any {
		buf := make([]float32, hc.packed)
		return &buf
	}
	return hc
}

// pack encodes row (len dim) into buf (len packed): two fp16 bit
// patterns per float32 element, little end first, odd tail zero-padded.
func (c *halfCache) pack(buf, row []float32) {
	for i := range buf {
		lo := uint32(half.Bits(row[2*i]))
		var hi uint32
		if 2*i+1 < len(row) {
			hi = uint32(half.Bits(row[2*i+1]))
		}
		buf[i] = math.Float32frombits(lo | hi<<16)
	}
}

// unpack widens buf back into dst (len dim).
func (c *halfCache) unpack(dst, buf []float32) {
	for i, v := range buf {
		bits := math.Float32bits(v)
		dst[2*i] = half.FromBits(uint16(bits))
		if 2*i+1 < len(dst) {
			dst[2*i+1] = half.FromBits(uint16(bits >> 16))
		}
	}
}

func (c *halfCache) Get(id graph.NodeID, dst []float32) ([]float32, bool) {
	bufp := c.pool.Get().(*[]float32)
	row, ok := c.inner.Get(id, *bufp)
	if !ok || len(row) != c.packed {
		c.pool.Put(bufp)
		return nil, false
	}
	*bufp = row
	if cap(dst) < c.dim {
		dst = make([]float32, c.dim)
	}
	dst = dst[:c.dim]
	c.unpack(dst, row)
	c.pool.Put(bufp)
	return dst, true
}

func (c *halfCache) Put(id graph.NodeID, row []float32) {
	if len(row) != c.dim {
		return
	}
	bufp := c.pool.Get().(*[]float32)
	buf := (*bufp)[:c.packed]
	c.pack(buf, row)
	c.inner.Put(id, buf)
	c.pool.Put(bufp)
}

func (c *halfCache) Stats() CacheStats { return c.inner.Stats() }

func (c *halfCache) Close() error { return c.inner.Close() }

// FeatureSourceDtype reports a feature source's storage dtype through
// its optional FeatDtype method; sources without one serve fp32.
func FeatureSourceDtype(src FeatureSource) graph.FeatDtype {
	if d, ok := src.(interface{ FeatDtype() graph.FeatDtype }); ok {
		return d.FeatDtype()
	}
	return graph.DtypeF32
}

// StoredRowBytes returns the cache-resident payload size of one feature
// row of the given width under the given storage dtype (fp16 rows are
// packed two values per float32 element).
func StoredRowBytes(dim int, dt graph.FeatDtype) int64 {
	if dt == graph.DtypeF16 {
		return int64(packedRowLen(dim)) * 4
	}
	return int64(dim) * 4
}
