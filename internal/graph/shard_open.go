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

// TotalCutArcs sums the per-shard cut-arc counts — the shard set's
// whole edge cut, the upper bound on the set's distinct halo rows.
func (m *ShardManifest) TotalCutArcs() int64 {
	var cut int64
	for _, e := range m.Shards {
		cut += e.CutArcs
	}
	return cut
}

// EdgeCutFraction is the edge cut as a fraction of all arcs (0 when the
// manifest records no arcs).
func (m *ShardManifest) EdgeCutFraction() float64 {
	if m.NumArcs == 0 {
		return 0
	}
	return float64(m.TotalCutArcs()) / float64(m.NumArcs)
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

// ShardManifest decodes the manifest section, reporting ok=false when
// the store carries none (an ordinary, non-shard store).
func (l *LazyDataset) ShardManifest() (*ShardManifest, bool, error) {
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
// per-shard stores. File-backed sets open each shard's store on first
// use (mmap on linux), so topology-only consumers — Validate, Skeleton —
// never touch feature bytes.
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
// (shard 0, as written by WriteShardSet or `argo-data shard`) is at
// path. Sibling shard files are resolved relative to path's directory
// and opened lazily on first access. The caller must Close the set.
func OpenShardSet(path string) (*ShardSet, error) {
	lz, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	man, ok, err := lz.ShardManifest()
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

// Spec returns the global dataset's spec.
func (ss *ShardSet) Spec() DatasetSpec { return ss.Manifest.Spec }

// Locations returns the set's location table, the one answer to "where
// does node v live": shard[v] owns global node v at row[v] of its feature
// and label sections (v's index in ShardMap.Owned). 8 B/node, read-only,
// built by the first call (safe to race), which fails unless each node is owned once.
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

// Locate returns the shard owning global node v and v's row there.
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

// Owner returns the shard owning global node v.
func (ss *ShardSet) Owner(v NodeID) (shard int, err error) {
	shard, _, err = ss.Locate(v)
	return shard, err
}

// Shard returns shard i's store, opening it lazily for file-backed
// sets. The set retains ownership; Close closes every opened shard.
func (ss *ShardSet) Shard(i int) (*LazyDataset, error) {
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
// section on first use.
func (ss *ShardSet) ShardMap(i int) (*ShardMap, error) {
	if i < 0 || i >= ss.Manifest.K {
		return nil, fmt.Errorf("graph: shard %d of %d", i, ss.Manifest.K)
	}
	if ss.maps[i] != nil {
		return ss.maps[i], nil
	}
	lz, err := ss.Shard(i)
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

// Validate checks the shard set end to end using topology-only opens:
// the manifest itself, the location table (each global node owned by
// exactly one shard, as many per shard as its manifest entry says),
// then every shard's map and local CSR — owned and halo lists
// ascending, halo nodes foreign and exactly the targets of the shard's
// cut arcs, with empty local rows — and the per-shard stats profile.
// Feature bytes are never read.
func (ss *ShardSet) Validate() error {
	m := &ss.Manifest
	if err := m.Validate(); err != nil {
		return err
	}
	owner, _, err := ss.Locations()
	if err != nil {
		return err
	}
	for s := 0; s < m.K; s++ {
		e := m.Shards[s]
		sm, err := ss.ShardMap(s)
		if err != nil {
			return err
		}
		if sm.Shard != s || sm.K != m.K {
			return fmt.Errorf("graph: shard %d's map says shard %d of %d", s, sm.Shard, sm.K)
		}
		if len(sm.Halo) != e.Halo {
			return fmt.Errorf("graph: shard %d map has %d halo nodes, manifest says %d", s, len(sm.Halo), e.Halo)
		}
		for j := 1; j < len(sm.Owned); j++ {
			if sm.Owned[j-1] >= sm.Owned[j] {
				return fmt.Errorf("graph: shard %d owned list not ascending at %d", s, j)
			}
		}
		for j, v := range sm.Halo {
			if j > 0 && sm.Halo[j-1] >= v {
				return fmt.Errorf("graph: shard %d halo list not ascending at %d", s, j)
			}
			if v < 0 || int(v) >= len(owner) {
				return fmt.Errorf("graph: shard %d halo node %d outside [0,%d)", s, v, len(owner))
			}
			if owner[v] == int32(s) {
				return fmt.Errorf("graph: shard %d lists owned node %d as halo", s, v)
			}
		}
		lz, err := ss.Shard(s)
		if err != nil {
			return err
		}
		if got := lz.FeatDtype().statsName(); got != m.FeatDtype {
			return fmt.Errorf("graph: shard %d stores %s features, manifest says %q",
				s, lz.FeatDtype(), m.FeatDtype)
		}
		lg, err := lz.Topology()
		if err != nil {
			return err
		}
		if lg.NumNodes != e.Owned+e.Halo {
			return fmt.Errorf("graph: shard %d CSR has %d nodes, want %d+%d", s, lg.NumNodes, e.Owned, e.Halo)
		}
		if lg.NumEdges() != e.Arcs {
			return fmt.Errorf("graph: shard %d CSR has %d arcs, manifest says %d", s, lg.NumEdges(), e.Arcs)
		}
		var cut int64
		haloTouched := make([]bool, len(sm.Halo))
		for l := 0; l < e.Owned; l++ {
			for _, u := range lg.Neighbors(NodeID(l)) {
				if int(u) >= e.Owned {
					cut++
					haloTouched[int(u)-e.Owned] = true
				}
			}
		}
		if cut != e.CutArcs {
			return fmt.Errorf("graph: shard %d has %d cut arcs, manifest says %d", s, cut, e.CutArcs)
		}
		for h := e.Owned; h < lg.NumNodes; h++ {
			if lg.Degree(NodeID(h)) != 0 {
				return fmt.Errorf("graph: shard %d halo node %d has a local adjacency row", s, h)
			}
			if !haloTouched[h-e.Owned] {
				return fmt.Errorf("graph: shard %d halo node %d (global %d) is referenced by no cut arc", s, h, sm.Halo[h-e.Owned])
			}
		}
		if st := lz.Stats(); st.Shard != nil {
			if st.Shard.Owned != e.Owned || st.Shard.Halo != e.Halo || st.Shard.CutArcs != e.CutArcs {
				return fmt.Errorf("graph: shard %d stats profile (%d/%d/%d) disagrees with manifest (%d/%d/%d)",
					s, st.Shard.Owned, st.Shard.Halo, st.Shard.CutArcs, e.Owned, e.Halo, e.CutArcs)
			}
		}
	}
	return nil
}
