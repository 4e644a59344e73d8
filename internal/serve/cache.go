// Package serve is ARGO's inference subsystem: a checkpoint-backed GNN
// prediction server over a lazy or sharded .argograph store. Training
// (the rest of the repo) produces a checkpoint; this package answers
// node-classification queries against it at user-traffic scale, with a
// per-request full-neighborhood k-hop gather, cross-request
// micro-batching, and a hot-node locality layer. The locality layer
// exploits query skew: real query streams are Zipf-distributed (a small
// popular set absorbs most traffic), so the rows those queries'
// neighborhoods keep re-fetching should stay resident while the long
// tail pays the store read. But a deep full-neighborhood gather is also
// a scan — each request touches hundreds of one-off frontier rows — so
// plain recency caching (lru) lets the tail flush the hot set, which
// frequency-sketch admission (tinylfu) prevents; a HubStore of
// precomputed per-layer hub activations short-circuits the deepest
// gathers entirely.
package serve

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor/half"
)

// cacheEntryOverheadBytes approximates the per-entry bookkeeping cost
// (recency links, index slot, id) charged against the cache budget, so
// a byte budget remains honest for narrow feature rows.
const cacheEntryOverheadBytes = 64

// Cache is the serving layer's row-cache contract: a byte-bounded,
// concurrency-safe map from global node id to that node's feature row.
// Get copies into dst (grown as needed) so callers never alias cached
// storage; Put copies the row into cache-owned storage. Stats must be
// safe to call concurrently with Get/Put — /statz polls it while
// Predict traffic is in flight. The serving path gathers a request's
// rows under one lock, so Stats may wait for one gather to finish.
// Close releases cache-owned resources;
// the implementation here is memory-only, so it exists for symmetry
// with future disk-backed tiers.
type Cache interface {
	Get(id graph.NodeID, dst []float32) ([]float32, bool)
	Put(id graph.NodeID, row []float32)
	Stats() CacheStats
	Close() error
}

// CacheConfig sizes a cache.
type CacheConfig struct {
	// CapBytes bounds the cache, counting row payloads plus
	// cacheEntryOverheadBytes per entry. <= 0 disables caching: Get
	// always misses, Put is a no-op.
	CapBytes int64
	// RowBytes is the payload size of one row (feature dim × 4). Every
	// row of a cache has this one width; a Put of any other width is
	// not cached. Required when CapBytes > 0.
	RowBytes int64
}

// Cache policy names.
const (
	PolicyLRU     = "lru"     // plain recency
	PolicyTinyLFU = "tinylfu" // frequency-sketch admission over the LRU victim order
)

// Policies lists the cache policy names in sorted order.
func Policies() []string { return []string{PolicyLRU, PolicyTinyLFU} }

// NewCache builds a cache of fp32 rows under the named policy (names
// are case-insensitive).
func NewCache(policy string, cfg CacheConfig) (Cache, error) {
	c, err := newRowCache(policy, cfg.CapBytes, int(cfg.RowBytes/4), graph.DtypeF32)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// CacheStats is a point-in-time snapshot of a cache's counters, shaped
// for /statz JSON. Rejections is zero for lru, which has no admission
// filter.
type CacheStats struct {
	Policy     string  `json:"policy,omitempty"`
	CapBytes   int64   `json:"cap_bytes"`
	UsedBytes  int64   `json:"used_bytes"`
	Entries    int     `json:"entries"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	Rejections int64   `json:"rejections,omitempty"`
	HitRate    float64 `json:"hit_rate"`
}

// rowCache is the one Cache implementation: fixed-width row slots in a
// single slab, a dense id→slot index, and a recency list threaded
// through a per-slot link array, so a hit is two slice reads, a relink
// and a row copy, and a Put allocates nothing once the index has seen
// the largest id. With a nil sketch it is the lru policy. With a sketch
// it is tinylfu: every Get — hit or miss — records the id, and a Put
// into a full cache is admitted only if the sketch ranks the candidate
// above the LRU victim. A one-pass scan therefore bounces off the
// admission filter (each scan row has frequency ~1, the resident hot
// set more) instead of flushing the cache.
type rowCache struct {
	mu       sync.Mutex
	policy   string
	capBytes int64
	entry    int64 // bytes charged per resident row: stored payload + overhead
	width    int   // float32 elements in every row handed to Get and Put

	n     int            // resident rows; slots [0,n) are in use
	ids   []graph.NodeID // slot → id; len(ids) is the slot count
	rows  []float32      // fp32 source: slot s holds rows[s*width:(s+1)*width]
	half  []uint16       // fp16 source: the same layout in the store's own fp16 bits
	index []int32        // id → slot+1, 0 when absent; grown to the largest id cached
	links []link         // recency ring; links[len(ids)] is its sentinel

	sketch *cmSketch

	hits, misses, evictions, rejections int64
}

// link is one slot's place in the recency ring. The sentinel's next is
// the most recently used slot and its prev the eviction victim.
type link struct{ prev, next int32 }

// newRowCache sizes the slab at capBytes / (stored row bytes + entry
// overhead) slots. Rows of an fp16 source are fp16-exact by the store
// invariant, so they are kept as fp16 bits — the same budget holds
// roughly twice the rows, and a Get returns the very bits a Put
// received.
func newRowCache(policy string, capBytes int64, width int, dt graph.FeatDtype) (*rowCache, error) {
	c := &rowCache{
		policy:   strings.ToLower(strings.TrimSpace(policy)),
		capBytes: capBytes,
		entry:    StoredRowBytes(width, dt) + cacheEntryOverheadBytes,
		width:    width,
	}
	slots := 0
	if capBytes > 0 {
		if width < 1 {
			return nil, fmt.Errorf("serve: a cache with a byte budget needs its row size, got %d floats", width)
		}
		slots = int(capBytes / c.entry)
	}
	switch c.policy {
	case PolicyLRU:
	case PolicyTinyLFU:
		c.sketch = newCMSketch(slots)
	default:
		return nil, fmt.Errorf("serve: unknown cache policy %q (have: %s)", policy, strings.Join(Policies(), ", "))
	}
	c.ids = make([]graph.NodeID, slots)
	c.links = make([]link, slots+1)
	c.links[slots] = link{int32(slots), int32(slots)}
	if dt == graph.DtypeF16 {
		c.half = make([]uint16, slots*width)
	} else {
		c.rows = make([]float32, slots*width)
	}
	return c, nil
}

// slot returns id's slot, or -1 when id is not resident.
func (c *rowCache) slot(id graph.NodeID) int32 {
	if id < 0 || int(id) >= len(c.index) {
		return -1
	}
	return c.index[id] - 1
}

func (c *rowCache) unlink(s int32) {
	l := c.links[s]
	c.links[l.prev].next = l.next
	c.links[l.next].prev = l.prev
}

// pushFront makes the unlinked slot s the most recently used.
func (c *rowCache) pushFront(s int32) {
	sentinel := int32(len(c.ids))
	first := c.links[sentinel].next
	c.links[s] = link{sentinel, first}
	c.links[sentinel].next = s
	c.links[first].prev = s
}

// Get copies node id's cached row into dst (grown as needed) and
// returns it, or (nil, false) on a miss.
func (c *rowCache) Get(id graph.NodeID, dst []float32) ([]float32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(id, dst)
}

// Put makes node id's row resident, copying it into the slab. A row
// already resident only moves to the front (its bytes are a function of
// the id); a new row takes a free slot or, in a full cache, the LRU
// victim's — unless the admission sketch ranks it no higher than the
// victim, in which case it is rejected and nothing is evicted.
func (c *rowCache) Put(id graph.NodeID, row []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(id, row)
}

// fill gathers one request's rows under a single lock: for each id in
// order it does what Get does into rowOf(i) and, on a miss, calls read
// to fill that row from the source and then does what Put does. Every
// decision and counter is therefore the one the same Get/Put calls row
// by row would make. A read error ends the pass with that row's miss
// counted and nothing cached for it. rowOf and read run under c.mu and
// must not call back into the cache.
func (c *rowCache) fill(ids []graph.NodeID, rowOf func(i int) []float32, read func(id graph.NodeID, dst []float32) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range ids {
		dst := rowOf(i)
		if _, ok := c.get(v, dst); ok {
			continue
		}
		if err := read(v, dst); err != nil {
			return err
		}
		c.put(v, dst)
	}
	return nil
}

// get is Get under c.mu.
func (c *rowCache) get(id graph.NodeID, dst []float32) ([]float32, bool) {
	if c.sketch != nil {
		c.sketch.touch(id)
	}
	s := c.slot(id)
	if s < 0 {
		c.misses++
		return nil, false
	}
	c.unlink(s)
	c.pushFront(s)
	dst = slices.Grow(dst[:0], c.width)[:c.width]
	lo, hi := int(s)*c.width, int(s+1)*c.width
	if c.half != nil {
		half.Decode(dst, c.half[lo:hi])
	} else {
		copy(dst, c.rows[lo:hi])
	}
	c.hits++
	return dst, true
}

// put is Put under c.mu.
func (c *rowCache) put(id graph.NodeID, row []float32) {
	if id < 0 || len(row) != c.width || len(c.ids) == 0 {
		return
	}
	if s := c.slot(id); s >= 0 {
		c.unlink(s)
		c.pushFront(s)
		return
	}
	s := int32(c.n)
	if c.n == len(c.ids) {
		s = c.links[len(c.ids)].prev
		if c.sketch != nil && c.sketch.estimate(id) <= c.sketch.estimate(c.ids[s]) {
			c.rejections++
			return
		}
		c.unlink(s)
		c.index[c.ids[s]] = 0
		c.evictions++
	} else {
		c.n++
	}
	if int(id) >= len(c.index) {
		c.index = append(c.index, make([]int32, int(id)+1-len(c.index))...)
	}
	c.ids[s], c.index[id] = id, s+1
	lo, hi := int(s)*c.width, int(s+1)*c.width
	if c.half != nil {
		half.Encode(c.half[lo:hi], row)
	} else {
		copy(c.rows[lo:hi], row)
	}
	c.pushFront(s)
}

// Stats returns a snapshot of the counters, waiting for a gather in
// progress to finish.
func (c *rowCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Policy:     c.policy,
		CapBytes:   c.capBytes,
		UsedBytes:  int64(c.n) * c.entry,
		Entries:    c.n,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Rejections: c.rejections,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Close implements Cache; the slab holds no external resources.
func (c *rowCache) Close() error { return nil }

// FeatureSourceDtype reports a feature source's storage dtype through
// its optional FeatDtype method; sources without one serve fp32.
func FeatureSourceDtype(src FeatureSource) graph.FeatDtype {
	if d, ok := src.(interface{ FeatDtype() graph.FeatDtype }); ok {
		return d.FeatDtype()
	}
	return graph.DtypeF32
}

// StoredRowBytes returns the cache-resident payload size of one feature
// row of the given width under the given storage dtype (fp16 rows cost
// two bytes a value, rounded up to a whole float32).
func StoredRowBytes(dim int, dt graph.FeatDtype) int64 {
	if dt == graph.DtypeF16 {
		return int64((dim+1)/2) * 4
	}
	return int64(dim) * 4
}

// cmSketch is the frequency half of TinyLFU admission: a 4-row
// count-min sketch of 8-bit counters with periodic halving, so recent
// popularity dominates and one-off scan traffic decays to noise. The
// hashing is a fixed Murmur-style finaliser plus Kirsch-Mitzenmacher
// double hashing — no per-process seed — so a replayed request stream
// produces bit-identical admission decisions (the pinned counters in
// cache_test.go rely on that).
type cmSketch struct {
	rows    [cmDepth][]uint8
	mask    uint64
	samples int64 // increments since the last halving
	window  int64 // halve when samples reaches this
}

const cmDepth = 4

func newCMSketch(entries int) *cmSketch {
	if entries < 1 {
		entries = 1
	}
	width := 1
	for width < entries*8 {
		width <<= 1
	}
	if width < 1024 {
		width = 1024
	}
	s := &cmSketch{mask: uint64(width - 1), window: int64(entries) * 10}
	if s.window < 10240 {
		s.window = 10240
	}
	for i := range s.rows {
		s.rows[i] = make([]uint8, width)
	}
	return s
}

// mix is MurmurHash3's fmix64 finaliser: a deterministic avalanche of
// the 32-bit node id into 64 well-distributed bits.
func mix(id graph.NodeID) uint64 {
	x := uint64(uint32(id))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (s *cmSketch) index(h uint64, row int) uint64 {
	// Kirsch-Mitzenmacher: two halves of one hash generate all rows.
	return (h + uint64(row)*(h>>32|1)) & s.mask
}

// touch records one observation of id, halving every counter once the
// sample window fills (the aging that keeps the sketch tracking recent
// frequency rather than all-time frequency).
func (s *cmSketch) touch(id graph.NodeID) {
	h := mix(id)
	for i := range s.rows {
		c := &s.rows[i][s.index(h, i)]
		if *c < 255 {
			*c++
		}
	}
	s.samples++
	if s.samples >= s.window {
		for i := range s.rows {
			for j := range s.rows[i] {
				s.rows[i][j] >>= 1
			}
		}
		s.samples >>= 1
	}
}

// estimate returns the sketch's (over-)estimate of id's frequency.
func (s *cmSketch) estimate(id graph.NodeID) uint8 {
	h := mix(id)
	est := uint8(255)
	for i := range s.rows {
		if c := s.rows[i][s.index(h, i)]; c < est {
			est = c
		}
	}
	return est
}
