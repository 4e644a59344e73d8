package graph

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
)

// Validate checks the manifest's internal consistency: a known schema
// version; one entry per shard, each naming a plain file in the
// manifest's own directory; owned counts of at least one that sum to
// NumNodes; and split counts that sum to the manifest's. Which nodes a
// shard owns is read from its shardmap by ShardSet.Locations.
func (m *ShardManifest) Validate() error {
	if m.Version != 1 && m.Version != manifestVersion {
		return fmt.Errorf("graph: shard manifest schema version %d (supported: 1, %d)", m.Version, manifestVersion)
	}
	if m.K < 1 || len(m.Shards) != m.K {
		return fmt.Errorf("graph: manifest declares k=%d but lists %d shards", m.K, len(m.Shards))
	}
	if m.NumNodes < 1 {
		return fmt.Errorf("graph: manifest covers %d nodes", m.NumNodes)
	}
	files := make(map[string]bool, m.K)
	rest := m.NumNodes // nodes not yet owned by an entry; never negative, so the sum cannot overflow
	var splits [3]int64
	for i, e := range m.Shards {
		if e.Index != i {
			return fmt.Errorf("graph: shard entry %d has index %d", i, e.Index)
		}
		// The writer only emits base names; anything else would let a
		// crafted manifest open files outside the set's directory.
		if e.File != filepath.Base(e.File) || e.File == "." || e.File == ".." {
			return fmt.Errorf("graph: shard %d file %q is not a file name in the manifest's directory", i, e.File)
		}
		if files[e.File] {
			return fmt.Errorf("graph: shard file %q listed twice", e.File)
		}
		files[e.File] = true
		if e.Owned < 1 || int64(e.Owned) > rest {
			return fmt.Errorf("graph: shard %d owns %d nodes, %d of the manifest's %d are left", i, e.Owned, rest, m.NumNodes)
		}
		rest -= int64(e.Owned)
		for si, c := range []int{e.Train, e.Val, e.Test} {
			splits[si] += int64(c)
		}
	}
	if rest != 0 {
		return fmt.Errorf("graph: shards own %d of the manifest's %d nodes", m.NumNodes-rest, m.NumNodes)
	}
	if want := [3]int64{int64(m.TrainCount), int64(m.ValCount), int64(m.TestCount)}; splits != want {
		return fmt.Errorf("graph: shards list %d/%d/%d train/val/test nodes, manifest says %d/%d/%d",
			splits[0], splits[1], splits[2], want[0], want[1], want[2])
	}
	return nil
}

// GlobalID maps a shard-local node id to its global id.
func (sm *ShardMap) GlobalID(local NodeID) (NodeID, error) {
	if int(local) < len(sm.Owned) {
		return sm.Owned[local], nil
	}
	h := int(local) - len(sm.Owned)
	if h < len(sm.Halo) {
		return sm.Halo[h], nil
	}
	return 0, fmt.Errorf("graph: local id %d outside shard %d's %d+%d nodes", local, sm.Shard, len(sm.Owned), len(sm.Halo))
}

// shardManifest decodes the manifest section, reporting ok=false when
// the store carries none (an ordinary, non-shard store). It stays only
// because OpenShardSet, which benchmark/train.go calls, reads it.
func (l *LazyDataset) shardManifest() (*ShardManifest, bool, error) {
	if _, found := findSection(l.sections, secManifest); !found {
		return nil, false, nil
	}
	var m ShardManifest
	l.mu.Lock()
	err := l.jsonSection(secManifest, &m)
	l.mu.Unlock()
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		return nil, true, err
	}
	return &m, true, nil
}

// shardMap decodes the store's shardmap section.
func (l *LazyDataset) shardMap() (*ShardMap, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := l.sectionBytes(secShardMap)
	if err != nil {
		return nil, err
	}
	d := dec{buf: b}
	sm := &ShardMap{Shard: int(d.u32()), K: int(d.u32())}
	nOwned, nHalo := d.u64(), d.u64()
	sm.Owned = d.i32s(d.elems(nOwned, 4))
	sm.Halo = d.i32s(d.elems(nHalo, 4))
	for _, ranks := range []*[]int64{&sm.TrainRank, &sm.ValRank, &sm.TestRank} {
		*ranks = d.i64s(d.count(8))
	}
	if err := d.done(secShardMap); err != nil {
		return nil, err
	}
	return sm, nil
}

// ShardSet is an opened shard set: the manifest plus lazily opened
// per-shard stores. Each shard's store opens on first use (mmap on
// linux), so Skeleton never touches feature bytes.
type ShardSet struct {
	Manifest ShardManifest
	dir      string
	lazies   []*LazyDataset
	maps     []*ShardMap

	locOnce          sync.Once
	locShard, locRow []int32
	locErr           error
}

// OpenShardSet opens the shard set whose manifest-carrying store
// (shard 0, as written by WriteShardSet) is at path. Sibling shard files
// are resolved relative to path's directory and opened lazily on first
// access. The caller must Close the set. It stays only because
// benchmark/train.go calls it.
func OpenShardSet(path string) (*ShardSet, error) {
	lz, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	man, ok, err := lz.shardManifest()
	if err != nil {
		lz.Close()
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	if !ok {
		lz.Close()
		return nil, fmt.Errorf("graph: %s: not a shard-set handle (no manifest section; pass the .shard0 store)", path)
	}
	ss := &ShardSet{
		Manifest: *man,
		dir:      filepath.Dir(path),
		lazies:   make([]*LazyDataset, man.K),
		maps:     make([]*ShardMap, man.K),
	}
	// Slot the already-open handle under its manifest entry.
	slot := slices.IndexFunc(man.Shards, func(e ShardEntry) bool { return e.File == filepath.Base(path) })
	if slot < 0 {
		lz.Close()
		return nil, fmt.Errorf("graph: %s: store is not listed in its own manifest", path)
	}
	ss.lazies[slot] = lz
	return ss, nil
}

// K returns the number of shards in the set.
func (ss *ShardSet) K() int { return ss.Manifest.K }

// Locations returns the set's location table, the one answer to "where
// does node v live": shard[v] owns global node v at row[v] of its feature
// and label sections (v's index in ShardMap.Owned). 8 B/node, read-only,
// built by the first call (safe to race), which fails unless each node is owned once.
// It stays only because benchmark/train.go's shard workloads reach it,
// through Rows, Skeleton and NewPartitionSetup's Owner.
func (ss *ShardSet) Locations() (shard, row []int32, err error) {
	ss.locOnce.Do(func() { ss.locShard, ss.locRow, ss.locErr = ss.buildLocations() })
	return ss.locShard, ss.locRow, ss.locErr
}

func (ss *ShardSet) buildLocations() (shard, row []int32, err error) {
	m := &ss.Manifest
	maps := make([]*ShardMap, m.K)
	owned := 0
	for s := range maps {
		if maps[s], err = ss.ShardMap(s); err != nil {
			return nil, nil, err
		}
		owned += len(maps[s].Owned)
	}
	// The table is sized from the maps, which are as long as their
	// sections, and only once they agree with the manifest.
	if owned != int(m.NumNodes) {
		return nil, nil, fmt.Errorf("graph: shard maps own %d of %d nodes", owned, m.NumNodes)
	}
	for s, sm := range maps {
		if len(sm.Owned) != m.Shards[s].Owned {
			return nil, nil, fmt.Errorf("graph: shard %d map owns %d nodes, manifest says %d", s, len(sm.Owned), m.Shards[s].Owned)
		}
	}
	shard, row = slices.Repeat([]int32{-1}, owned), make([]int32, owned)
	for s, sm := range maps {
		for l, v := range sm.Owned {
			if v < 0 || int(v) >= owned {
				return nil, nil, fmt.Errorf("graph: shard %d owns node %d outside [0,%d)", s, v, owned)
			}
			if shard[v] >= 0 {
				return nil, nil, fmt.Errorf("graph: node %d owned by shards %d and %d", v, shard[v], s)
			}
			shard[v], row[v] = int32(s), int32(l)
		}
	}
	return shard, row, nil // in range, never twice and as many as nodes, so every node is owned
}

// Locate returns the shard owning global node v and v's row there (see
// Locations for why it stays).
func (ss *ShardSet) Locate(v NodeID) (shard, row int, err error) {
	shards, rows, err := ss.Locations()
	if err != nil {
		return 0, 0, err
	}
	if v < 0 || int(v) >= len(shards) {
		return 0, 0, fmt.Errorf("graph: node %d outside [0,%d)", v, len(shards))
	}
	return int(shards[v]), int(rows[v]), nil
}

// Owner returns the shard owning global node v. It stays only because
// engine.NewPartitionSetup, which benchmark/train.go calls, reads it.
func (ss *ShardSet) Owner(v NodeID) (shard int, err error) {
	shard, _, err = ss.Locate(v)
	return shard, err
}

// shard returns shard i's store, opening it on first use. The set
// retains ownership; Close closes every opened shard.
func (ss *ShardSet) shard(i int) (*LazyDataset, error) {
	if i < 0 || i >= ss.Manifest.K {
		return nil, fmt.Errorf("graph: shard %d of %d", i, ss.Manifest.K)
	}
	if ss.lazies[i] != nil {
		return ss.lazies[i], nil
	}
	lz, err := OpenLazy(filepath.Join(ss.dir, ss.Manifest.Shards[i].File))
	if err != nil {
		return nil, fmt.Errorf("graph: opening shard %d: %w", i, err)
	}
	ss.lazies[i] = lz
	return lz, nil
}

// ShardMap returns shard i's local↔global map, decoding the shardmap
// section on first use. It stays only because benchmark/train.go's
// shard workloads reach it, through Locations and NewPartitionSetup.
func (ss *ShardSet) ShardMap(i int) (*ShardMap, error) {
	if i < 0 || i >= ss.Manifest.K {
		return nil, fmt.Errorf("graph: shard %d of %d", i, ss.Manifest.K)
	}
	if ss.maps[i] != nil {
		return ss.maps[i], nil
	}
	lz, err := ss.shard(i)
	if err != nil {
		return nil, err
	}
	sm, err := lz.shardMap()
	if err != nil {
		return nil, fmt.Errorf("graph: shard %d: %w", i, err)
	}
	ss.maps[i] = sm
	return sm, nil
}

// Close closes every opened shard store.
func (ss *ShardSet) Close() error {
	var first error
	for i, lz := range ss.lazies {
		if lz == nil {
			continue
		}
		if err := lz.Close(); err != nil && first == nil {
			first = err
		}
		ss.lazies[i] = nil
	}
	return first
}
