package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"argo/internal/tensor"
)

// A shard set splits one dataset into k .argograph v2 stores, one per
// graph partition, so a distributed trainer can map only the shards its
// replicas own. Each shard is an ordinary v2 dataset store over its
// *local* node space — owned nodes first (ascending global id), then
// the 1-hop halo (ghost) nodes its cut edges reference — carrying local
// CSR, features (halo rows cached, HyScale-GNN style), labels, splits,
// and a stats section whose Shard field records the halo and degree
// profile. Two extra sections ride the extensible v2 table without a
// version bump:
//
//   - shardmap (id 7, every shard): the binary local↔global node map
//     plus the global ranks of the shard's split entries, which is what
//     makes reassembly exact (including split *order*, so a sharded
//     training run shuffles identically to a single-store one);
//   - manifest (id 8, shard 0 only): the ShardManifest JSON mapping
//     global node ranges to shards and summarising per-shard halo
//     edges.
//
// A reader that predates these sections still verifies (CRC-only) and
// loads every shard as a plain dataset store; that forward-compat
// promise is pinned by TestUnknownSectionForwardCompat.

// ShardManifest describes a shard set: the global shape, the owner of
// every global node id (as run-length ranges), and one entry per shard.
// It is stored as JSON in the manifest section of shard 0.
type ShardManifest struct {
	Version    int    `json:"version"` // manifest schema version, 1
	Base       string `json:"base"`    // shard file basename stem
	K          int    `json:"k"`
	NumNodes   int64  `json:"num_nodes"`
	NumArcs    int64  `json:"num_arcs"`
	NumClasses int    `json:"num_classes"`
	FeatDim    int    `json:"feat_dim"`
	// FeatDtype is the set-wide feature encoding ("fp16", or empty for
	// fp32 so pre-dtype manifests are byte-unchanged). Every shard store
	// carries the same dtype; it is also what the exchange layer
	// negotiates its wire encoding from.
	FeatDtype   string       `json:"feat_dtype,omitempty"`
	TrainCount  int          `json:"train_count"`
	ValCount    int          `json:"val_count"`
	TestCount   int          `json:"test_count"`
	Partitioner string       `json:"partitioner"`
	Seed        int64        `json:"seed"`
	Spec        DatasetSpec  `json:"spec"` // the global dataset's spec
	Shards      []ShardEntry `json:"shards"`
	// Runs maps global node ranges to their owning shard: ascending,
	// contiguous, covering [0, NumNodes) exactly.
	Runs []OwnerRun `json:"runs"`
}

// ShardEntry summarises one shard of the set.
type ShardEntry struct {
	Index   int    `json:"index"`
	File    string `json:"file"` // relative to the manifest store's directory
	Owned   int    `json:"owned"`
	Halo    int    `json:"halo"`
	Arcs    int64  `json:"arcs"`     // arcs stored (all neighbours of owned nodes)
	CutArcs int64  `json:"cut_arcs"` // arcs from owned nodes to halo nodes
	Train   int    `json:"train"`
	Val     int    `json:"val"`
	Test    int    `json:"test"`
}

// OwnerRun assigns the global node range [Start, Start+Count) to Shard.
type OwnerRun struct {
	Start int64 `json:"start"`
	Count int64 `json:"count"`
	Shard int   `json:"shard"`
}

// manifestVersion is the current ShardManifest schema version.
const manifestVersion = 1

// Validate checks the manifest's internal consistency: shard entries
// and owner runs present, runs ascending/contiguous/covering, every
// run's shard in range, and per-shard owned counts matching the runs.
func (m *ShardManifest) Validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("graph: shard manifest schema version %d (supported: %d)", m.Version, manifestVersion)
	}
	if m.K < 1 || len(m.Shards) != m.K {
		return fmt.Errorf("graph: manifest declares k=%d but lists %d shards", m.K, len(m.Shards))
	}
	if m.NumNodes < 1 {
		return fmt.Errorf("graph: manifest covers %d nodes", m.NumNodes)
	}
	files := make(map[string]bool, m.K)
	for i, e := range m.Shards {
		if e.Index != i {
			return fmt.Errorf("graph: shard entry %d has index %d", i, e.Index)
		}
		if e.File == "" {
			return fmt.Errorf("graph: shard %d has no file name", i)
		}
		if files[e.File] {
			return fmt.Errorf("graph: shard file %q listed twice", e.File)
		}
		files[e.File] = true
	}
	owned := make([]int64, m.K)
	next := int64(0)
	for _, r := range m.Runs {
		if r.Shard < 0 || r.Shard >= m.K {
			return fmt.Errorf("graph: owner run [%d,+%d) names shard %d of %d", r.Start, r.Count, r.Shard, m.K)
		}
		if r.Count < 1 {
			return fmt.Errorf("graph: empty owner run at %d", r.Start)
		}
		if r.Start != next {
			return fmt.Errorf("graph: owner runs not contiguous: run starts at %d, want %d", r.Start, next)
		}
		next = r.Start + r.Count
		owned[r.Shard] += r.Count
	}
	if next != m.NumNodes {
		return fmt.Errorf("graph: owner runs cover %d of %d nodes", next, m.NumNodes)
	}
	for i, e := range m.Shards {
		if owned[i] != int64(e.Owned) {
			return fmt.Errorf("graph: shard %d owns %d nodes per runs, entry says %d", i, owned[i], e.Owned)
		}
	}
	return nil
}

// Owner finds global node v's shard in the owner runs (an opened set has Locate).
func (m *ShardManifest) Owner(v NodeID) (int, error) {
	if v < 0 || int64(v) >= m.NumNodes {
		return 0, fmt.Errorf("graph: node %d outside [0,%d)", v, m.NumNodes)
	}
	i := sort.Search(len(m.Runs), func(i int) bool { return m.Runs[i].Start > int64(v) }) - 1
	if i < 0 || int64(v) >= m.Runs[i].Start+m.Runs[i].Count {
		return 0, fmt.Errorf("graph: node %d not covered by owner runs", v)
	}
	return m.Runs[i].Shard, nil
}

// TotalCutArcs sums the per-shard cut-arc counts — the shard set's
// whole edge cut, the upper bound on distinct halo rows any exchange
// over this set can move per epoch.
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

// ownerRuns run-length-encodes a partition assignment.
func ownerRuns(assign []int32) []OwnerRun {
	var runs []OwnerRun
	for v := 0; v < len(assign); v++ {
		s := int(assign[v])
		if n := len(runs); n > 0 && runs[n-1].Shard == s {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, OwnerRun{Start: int64(v), Count: 1, Shard: s})
	}
	return runs
}

// ShardMap is the decoded shardmap section of one shard: the shard's
// local↔global node mapping and the global positions of its split
// entries. Local node l is Owned[l] for l < len(Owned) and
// Halo[l-len(Owned)] otherwise; both lists are ascending.
type ShardMap struct {
	Shard int
	K     int
	Owned []NodeID
	Halo  []NodeID
	// TrainRank[j] is the position of the shard's j-th train entry in
	// the global TrainIdx list (likewise Val/Test): reassembly restores
	// the exact global split order, not just its membership.
	TrainRank []int64
	ValRank   []int64
	TestRank  []int64
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

// LocalID maps a global node id to the shard-local id, or -1 when the
// node is neither owned nor in the halo.
func (sm *ShardMap) LocalID(global NodeID) NodeID {
	if i := sort.Search(len(sm.Owned), func(i int) bool { return sm.Owned[i] >= global }); i < len(sm.Owned) && sm.Owned[i] == global {
		return NodeID(i)
	}
	if i := sort.Search(len(sm.Halo), func(i int) bool { return sm.Halo[i] >= global }); i < len(sm.Halo) && sm.Halo[i] == global {
		return NodeID(len(sm.Owned) + i)
	}
	return -1
}

// encodeShardMap serialises the shardmap section payload.
func encodeShardMap(sm *ShardMap) []byte {
	var e enc
	e.u32(uint32(sm.Shard))
	e.u32(uint32(sm.K))
	e.u64(uint64(len(sm.Owned)))
	e.u64(uint64(len(sm.Halo)))
	e.i32s(sm.Owned)
	e.i32s(sm.Halo)
	for _, ranks := range [][]int64{sm.TrainRank, sm.ValRank, sm.TestRank} {
		e.u64(uint64(len(ranks)))
		e.i64s(ranks)
	}
	return e.buf
}

// decodeShardMapSection decodes a shardmap payload with the same
// division-only bounds discipline as the other section decoders.
func decodeShardMapSection(b []byte) (*ShardMap, error) {
	d := dec{buf: b}
	sm := &ShardMap{
		Shard: int(d.u32()),
		K:     int(d.u32()),
	}
	nOwned := int(d.u64())
	nHalo := int(d.u64())
	if d.err == nil && (nOwned < 0 || nHalo < 0 || nOwned > d.remaining()/4 || nHalo > (d.remaining()-4*nOwned)/4) {
		return nil, fmt.Errorf("graph: shardmap of %d+%d nodes exceeds section", nOwned, nHalo)
	}
	sm.Owned = d.i32s(nOwned)
	sm.Halo = d.i32s(nHalo)
	for _, ranks := range []*[]int64{&sm.TrainRank, &sm.ValRank, &sm.TestRank} {
		n := int(d.u64())
		if d.err == nil && (n < 0 || n > d.remaining()/8) {
			return nil, fmt.Errorf("graph: shardmap rank list of %d exceeds section", n)
		}
		*ranks = d.i64s(n)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes in shardmap section", len(d.buf)-d.off)
	}
	return sm, nil
}

// ShardOptions configures WriteShardSet / ShardSetFromDataset.
type ShardOptions struct {
	K int
	// Partitioner selects the node-splitting strategy: "greedy" (the
	// deterministic BFS partitioner, default) or "random".
	Partitioner string
	// Seed drives the random partitioner (ignored by greedy, recorded
	// in the manifest either way).
	Seed int64
}

// partition builds the node assignment for the options.
func (o ShardOptions) partition(g *CSR) (*Partition, error) {
	if o.K < 1 {
		return nil, fmt.Errorf("graph: shard count %d", o.K)
	}
	if o.K > g.NumNodes {
		return nil, fmt.Errorf("graph: %d shards for %d nodes", o.K, g.NumNodes)
	}
	switch o.Partitioner {
	case "", "greedy":
		return GreedyPartition(g, o.K), nil
	case "random":
		return RandomPartition(g, o.K, rand.New(rand.NewSource(o.Seed))), nil
	}
	return nil, fmt.Errorf("graph: unknown partitioner %q (greedy, random)", o.Partitioner)
}

func (o ShardOptions) partitionerName() string {
	if o.Partitioner == "" {
		return "greedy"
	}
	return o.Partitioner
}

// shardBuild is one fully materialised shard before encoding.
type shardBuild struct {
	ds    *Dataset
	sm    *ShardMap
	stats Stats
}

// buildShards splits d according to p into k local datasets plus the
// manifest. It is shared by the file writer and the in-memory
// constructor, so both produce identical shard contents.
func buildShards(d *Dataset, p *Partition, opt ShardOptions, base string) ([]shardBuild, *ShardManifest, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: refusing to shard invalid dataset: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	g := d.Graph
	k := p.K
	man := &ShardManifest{
		Version:     manifestVersion,
		Base:        base,
		K:           k,
		NumNodes:    int64(g.NumNodes),
		NumArcs:     g.NumEdges(),
		NumClasses:  d.NumClasses,
		FeatDim:     d.Features.Cols,
		FeatDtype:   d.FeatDtype.statsName(),
		TrainCount:  len(d.TrainIdx),
		ValCount:    len(d.ValIdx),
		TestCount:   len(d.TestIdx),
		Partitioner: opt.partitionerName(),
		Seed:        opt.Seed,
		Spec:        d.Spec,
		Runs:        ownerRuns(p.Assign),
	}

	owned := make([][]NodeID, k)
	for v := 0; v < g.NumNodes; v++ {
		s := p.Assign[v]
		owned[s] = append(owned[s], NodeID(v)) // ascending by construction
	}

	// Split membership per shard, in global-list order, with global
	// ranks recorded for exact reassembly.
	type splitRef struct {
		locals []NodeID // filled after local ids are known; holds globals first
		ranks  []int64
	}
	splits := [3][]NodeID{d.TrainIdx, d.ValIdx, d.TestIdx}
	perShard := make([][3]splitRef, k)
	for si, split := range splits {
		for rank, v := range split {
			s := p.Assign[v]
			perShard[s][si].locals = append(perShard[s][si].locals, v)
			perShard[s][si].ranks = append(perShard[s][si].ranks, int64(rank))
		}
	}

	localOf := make([]NodeID, g.NumNodes) // scratch, valid only for the current shard
	builds := make([]shardBuild, k)
	for s := 0; s < k; s++ {
		own := owned[s]
		if len(own) == 0 {
			return nil, nil, fmt.Errorf("graph: shard %d owns no nodes (lower -k or change the partitioner)", s)
		}
		// 1-hop halo: every foreign neighbour of an owned node.
		seen := make(map[NodeID]bool)
		var halo []NodeID
		var arcs, cutArcs int64
		for _, v := range own {
			for _, u := range g.Neighbors(v) {
				arcs++
				if p.Assign[u] != int32(s) {
					cutArcs++
					if !seen[u] {
						seen[u] = true
						halo = append(halo, u)
					}
				}
			}
		}
		sort.Slice(halo, func(i, j int) bool { return halo[i] < halo[j] })

		for l, v := range own {
			localOf[v] = NodeID(l)
		}
		for h, v := range halo {
			localOf[v] = NodeID(len(own) + h)
		}
		n := len(own) + len(halo)

		// Local CSR: owned rows carry their full (remapped, re-sorted)
		// adjacency; halo rows are empty — a halo node's own
		// neighbourhood lives in its owning shard.
		lg := &CSR{NumNodes: n, RowPtr: make([]int64, n+1), Col: make([]NodeID, 0, arcs)}
		for l, v := range own {
			row := make([]NodeID, 0, g.Degree(v))
			for _, u := range g.Neighbors(v) {
				row = append(row, localOf[u])
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			lg.Col = append(lg.Col, row...)
			lg.RowPtr[l+1] = int64(len(lg.Col))
		}
		for l := len(own); l < n; l++ {
			lg.RowPtr[l+1] = lg.RowPtr[l]
		}

		feats := tensor.New(n, d.Features.Cols)
		labels := make([]int32, n)
		fill := func(l int, v NodeID) {
			copy(feats.Row(l), d.Features.Row(int(v)))
			labels[l] = d.Labels[v]
		}
		for l, v := range own {
			fill(l, v)
		}
		for h, v := range halo {
			fill(len(own)+h, v)
		}

		sm := &ShardMap{Shard: s, K: k, Owned: own, Halo: halo}
		var localSplits [3][]NodeID
		for si := range splits {
			ref := perShard[s][si]
			locals := make([]NodeID, len(ref.locals))
			for j, v := range ref.locals {
				locals[j] = localOf[v]
			}
			localSplits[si] = locals
		}
		sm.TrainRank, sm.ValRank, sm.TestRank = perShard[s][0].ranks, perShard[s][1].ranks, perShard[s][2].ranks
		if len(localSplits[0]) == 0 {
			return nil, nil, fmt.Errorf("graph: shard %d has no training nodes (lower -k or change the partitioner/seed)", s)
		}

		spec := d.Spec
		spec.Name = fmt.Sprintf("%s#shard%d/%d", d.Spec.Name, s, k)
		sds := &Dataset{
			Spec:       spec,
			Graph:      lg,
			Features:   feats,
			FeatDtype:  d.FeatDtype,
			Labels:     labels,
			NumClasses: d.NumClasses,
			TrainIdx:   localSplits[0],
			ValIdx:     localSplits[1],
			TestIdx:    localSplits[2],
		}
		if err := sds.Validate(); err != nil {
			return nil, nil, fmt.Errorf("graph: shard %d invalid: %w", s, err)
		}
		st := ComputeStats(sds)
		st.Shard = &ShardStats{Index: s, Count: k, Owned: len(own), Halo: len(halo), CutArcs: cutArcs}
		builds[s] = shardBuild{ds: sds, sm: sm, stats: st}
		man.Shards = append(man.Shards, ShardEntry{
			Index: s, File: shardFileName(base, s), Owned: len(own), Halo: len(halo),
			Arcs: arcs, CutArcs: cutArcs,
			Train: len(localSplits[0]), Val: len(localSplits[1]), Test: len(localSplits[2]),
		})
	}
	if err := man.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: built inconsistent manifest: %w", err)
	}
	return builds, man, nil
}

// shardFileName names shard s of a set with the given base stem.
func shardFileName(base string, s int) string {
	return fmt.Sprintf("%s.shard%d.argograph", base, s)
}

// WriteShardSet partitions d into opt.K shards and writes them under
// dir as base.shard<i>.argograph. Shard 0 additionally carries the
// manifest section and is the handle OpenShardSet takes. Writes are
// atomic per file; the encoding is canonical, so sharding the same
// dataset twice produces byte-identical files. Returns the manifest and
// the written paths, shard order.
func WriteShardSet(d *Dataset, dir, base string, opt ShardOptions) (*ShardManifest, []string, error) {
	p, err := opt.partition(d.Graph)
	if err != nil {
		return nil, nil, err
	}
	builds, man, err := buildShards(d, p, opt, base)
	if err != nil {
		return nil, nil, err
	}
	manJSON, err := json.Marshal(man)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: encoding shard manifest: %w", err)
	}
	paths := make([]string, len(builds))
	for s, b := range builds {
		extras := []section{{secShardMap, encodeShardMap(b.sm)}}
		if s == 0 {
			extras = append(extras, section{secManifest, manJSON})
		}
		st := b.stats
		raw, err := encodeDatasetV2Extra(b.ds, &st, extras)
		if err != nil {
			return nil, nil, err
		}
		path := filepath.Join(dir, man.Shards[s].File)
		if err := saveAtomic(path, func(w io.Writer) error {
			_, werr := w.Write(raw)
			return werr
		}); err != nil {
			return nil, nil, fmt.Errorf("graph: writing shard %d: %w", s, err)
		}
		paths[s] = path
	}
	return man, paths, nil
}

// ShardSet is an opened shard set: the manifest plus lazily opened
// per-shard stores. File-backed sets open each shard's store on first
// use (mmap on linux), so topology-only consumers — Validate,
// AssembleTopology — never touch feature bytes.
type ShardSet struct {
	Manifest ShardManifest
	dir      string
	lazies   []*LazyDataset
	maps     []*ShardMap
	inMemory bool

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
	base := filepath.Base(path)
	slot := -1
	for i, e := range man.Shards {
		if e.File == base {
			slot = i
			break
		}
	}
	if slot < 0 {
		lz.Close()
		return nil, fmt.Errorf("graph: %s: store is not listed in its own manifest", path)
	}
	ss.lazies[slot] = lz
	return ss, nil
}

// ShardSetFromDataset builds a shard set in memory, without touching
// disk — the path `argo-train -shards name#k` takes. The shard contents
// are identical to what WriteShardSet would store.
func ShardSetFromDataset(d *Dataset, opt ShardOptions) (*ShardSet, error) {
	p, err := opt.partition(d.Graph)
	if err != nil {
		return nil, err
	}
	base := d.Spec.Name
	if base == "" {
		base = "dataset"
	}
	builds, man, err := buildShards(d, p, opt, base)
	if err != nil {
		return nil, err
	}
	ss := &ShardSet{
		Manifest: *man,
		lazies:   make([]*LazyDataset, man.K),
		maps:     make([]*ShardMap, man.K),
		inMemory: true,
	}
	for s, b := range builds {
		ss.lazies[s] = lazyFromDatasetWithStats(b.ds, b.stats)
		ss.maps[s] = b.sm
	}
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
	n := int(ss.Manifest.NumNodes)
	shard, row = slices.Repeat([]int32{-1}, n), make([]int32, n)
	owned := 0
	for s := 0; s < ss.Manifest.K; s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			return nil, nil, err
		}
		for l, v := range sm.Owned {
			if v < 0 || int(v) >= n {
				return nil, nil, fmt.Errorf("graph: shard %d owns node %d outside [0,%d)", s, v, n)
			}
			if shard[v] >= 0 {
				return nil, nil, fmt.Errorf("graph: node %d owned by shards %d and %d", v, shard[v], s)
			}
			shard[v], row[v] = int32(s), int32(l)
		}
		owned += len(sm.Owned)
	}
	if owned != n { // in range and never twice, so fewer means a node is missing
		return nil, nil, fmt.Errorf("graph: shard maps own %d of %d nodes", owned, n)
	}
	return shard, row, nil
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
	b, err := lz.sectionBytes(secShardMap)
	if err != nil {
		return nil, fmt.Errorf("graph: shard %d: %w", i, err)
	}
	sm, err := decodeShardMapSection(b)
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
// the manifest itself, then every shard's map and local CSR against it
// — ownership coverage and disjointness (each global node owned by
// exactly one shard, every owned list agreeing with the manifest runs),
// halo consistency (halo nodes foreign, sorted, exactly the targets of
// the shard's cut arcs, with empty local rows), and the per-shard stats
// profile. Feature bytes are never read.
func (ss *ShardSet) Validate() error {
	m := &ss.Manifest
	if err := m.Validate(); err != nil {
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
		if len(sm.Owned) != e.Owned || len(sm.Halo) != e.Halo {
			return fmt.Errorf("graph: shard %d map has %d+%d nodes, manifest says %d+%d",
				s, len(sm.Owned), len(sm.Halo), e.Owned, e.Halo)
		}
		for j, v := range sm.Owned {
			if j > 0 && sm.Owned[j-1] >= v {
				return fmt.Errorf("graph: shard %d owned list not ascending at %d", s, j)
			}
			o, err := m.Owner(v)
			if err != nil {
				return fmt.Errorf("graph: shard %d: %w", s, err)
			}
			if o != s {
				return fmt.Errorf("graph: node %d in shard %d's owned list belongs to shard %d", v, s, o)
			}
		}
		for j, v := range sm.Halo {
			if j > 0 && sm.Halo[j-1] >= v {
				return fmt.Errorf("graph: shard %d halo list not ascending at %d", s, j)
			}
			o, err := m.Owner(v)
			if err != nil {
				return fmt.Errorf("graph: shard %d: %w", s, err)
			}
			if o == s {
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

// AssembleTopology reconstructs the global CSR from the shards' local
// topologies and maps — topology-only opens, no feature bytes.
func (ss *ShardSet) AssembleTopology() (*CSR, error) {
	m := &ss.Manifest
	n := int(m.NumNodes)
	g := &CSR{NumNodes: n, RowPtr: make([]int64, n+1)}
	rows := make([][]NodeID, n)
	for s := 0; s < m.K; s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			return nil, err
		}
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, err
		}
		lg, err := lz.Topology()
		if err != nil {
			return nil, err
		}
		if lg.NumNodes != len(sm.Owned)+len(sm.Halo) {
			return nil, fmt.Errorf("graph: shard %d CSR and map disagree on node count", s)
		}
		for l, v := range sm.Owned {
			adj := lg.Neighbors(NodeID(l))
			row := make([]NodeID, len(adj))
			for j, u := range adj {
				gu, err := sm.GlobalID(u)
				if err != nil {
					return nil, err
				}
				row[j] = gu
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			if rows[v] != nil {
				return nil, fmt.Errorf("graph: node %d assembled from two shards", v)
			}
			rows[v] = row
		}
	}
	var total int64
	for v := range rows {
		total += int64(len(rows[v]))
		g.RowPtr[v+1] = total
	}
	g.Col = make([]NodeID, 0, total)
	for _, row := range rows {
		g.Col = append(g.Col, row...)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: assembled topology invalid: %w", err)
	}
	if g.NumEdges() != m.NumArcs {
		return nil, fmt.Errorf("graph: assembled %d arcs, manifest says %d", g.NumEdges(), m.NumArcs)
	}
	return g, nil
}

// assembleSplits reconstructs the global train/val/test lists in their
// original order from the shards' rank records.
func (ss *ShardSet) assembleSplits() (train, val, test []NodeID, err error) {
	m := &ss.Manifest
	out := [3][]NodeID{
		make([]NodeID, m.TrainCount),
		make([]NodeID, m.ValCount),
		make([]NodeID, m.TestCount),
	}
	filled := [3][]bool{
		make([]bool, m.TrainCount),
		make([]bool, m.ValCount),
		make([]bool, m.TestCount),
	}
	for s := 0; s < m.K; s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			return nil, nil, nil, err
		}
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, nil, nil, err
		}
		ltr, lva, lte, err := lz.Splits()
		if err != nil {
			return nil, nil, nil, err
		}
		for si, pair := range []struct {
			locals []NodeID
			ranks  []int64
		}{{ltr, sm.TrainRank}, {lva, sm.ValRank}, {lte, sm.TestRank}} {
			if len(pair.locals) != len(pair.ranks) {
				return nil, nil, nil, fmt.Errorf("graph: shard %d split %d has %d entries but %d ranks",
					s, si, len(pair.locals), len(pair.ranks))
			}
			for j, l := range pair.locals {
				gid, err := sm.GlobalID(l)
				if err != nil {
					return nil, nil, nil, err
				}
				r := pair.ranks[j]
				if r < 0 || r >= int64(len(out[si])) {
					return nil, nil, nil, fmt.Errorf("graph: shard %d split rank %d outside [0,%d)", s, r, len(out[si]))
				}
				if filled[si][r] {
					return nil, nil, nil, fmt.Errorf("graph: split rank %d assembled from two shards", r)
				}
				filled[si][r] = true
				out[si][r] = gid
			}
		}
	}
	for si := range filled {
		for r, ok := range filled[si] {
			if !ok {
				return nil, nil, nil, fmt.Errorf("graph: split %d rank %d covered by no shard", si, r)
			}
		}
	}
	return out[0], out[1], out[2], nil
}

// Skeleton reconstructs the global dataset's training scaffolding —
// topology, splits (in original order), spec, class count — without
// materialising any feature or label bytes. It is what the shard-aware
// trainer hands the engine: features and labels stay shard-resident and
// flow through the halo exchange instead.
func (ss *ShardSet) Skeleton() (*Dataset, error) {
	g, err := ss.AssembleTopology()
	if err != nil {
		return nil, err
	}
	train, val, test, err := ss.assembleSplits()
	if err != nil {
		return nil, err
	}
	dt, err := ParseFeatDtype(ss.Manifest.FeatDtype)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Spec:       ss.Manifest.Spec,
		Graph:      g,
		FeatDtype:  dt,
		NumClasses: ss.Manifest.NumClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
	}, nil
}

// AssembleDataset reconstructs the complete global dataset — the exact
// inverse of sharding. Reassembly is bit-exact: writing the assembled
// dataset produces the same bytes as writing the original.
func (ss *ShardSet) AssembleDataset() (*Dataset, error) {
	skel, err := ss.Skeleton()
	if err != nil {
		return nil, err
	}
	m := &ss.Manifest
	n := int(m.NumNodes)
	feats := tensor.New(n, m.FeatDim)
	labels := make([]int32, n)
	for s := 0; s < m.K; s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			return nil, err
		}
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, err
		}
		sf, err := lz.Features()
		if err != nil {
			return nil, err
		}
		sl, err := lz.Labels()
		if err != nil {
			return nil, err
		}
		if sf.Cols != m.FeatDim || sf.Rows < len(sm.Owned) || len(sl) < len(sm.Owned) {
			return nil, fmt.Errorf("graph: shard %d features/labels smaller than its owned set", s)
		}
		// Only owned rows are authoritative; halo rows are caches.
		for l, v := range sm.Owned {
			copy(feats.Row(int(v)), sf.Row(l))
			labels[v] = sl[l]
		}
	}
	skel.Features = feats
	skel.Labels = labels
	if err := skel.Validate(); err != nil {
		return nil, fmt.Errorf("graph: assembled dataset invalid: %w", err)
	}
	return skel, nil
}

// GlobalStats derives the global dataset's stats from the shards'
// stats sections alone — no topology or feature reads. Shard-local
// degrees of owned nodes equal their global degrees (owned rows carry
// full adjacency), so the shard histograms sum to the global one after
// removing the halo rows' zero-degree entries.
func (ss *ShardSet) GlobalStats() (Stats, error) {
	m := &ss.Manifest
	out := Stats{
		NumNodes:   m.NumNodes,
		NumArcs:    m.NumArcs,
		NumClasses: m.NumClasses,
		FeatRows:   int(m.NumNodes),
		FeatCols:   m.FeatDim,
		FeatDtype:  m.FeatDtype,
		TrainCount: m.TrainCount,
		ValCount:   m.ValCount,
		TestCount:  m.TestCount,
	}
	if m.NumNodes > 0 {
		out.AvgDegree = float64(m.NumArcs) / float64(m.NumNodes)
	}
	for s := 0; s < m.K; s++ {
		lz, err := ss.Shard(s)
		if err != nil {
			return Stats{}, err
		}
		st := lz.Stats()
		if st.MaxDegree > out.MaxDegree {
			out.MaxDegree = st.MaxDegree
		}
		for b, c := range st.DegreeHist {
			for len(out.DegreeHist) <= b {
				out.DegreeHist = append(out.DegreeHist, 0)
			}
			out.DegreeHist[b] += c
		}
		if len(out.DegreeHist) > 0 {
			out.DegreeHist[0] -= int64(m.Shards[s].Halo)
		}
	}
	for len(out.DegreeHist) > 0 && out.DegreeHist[len(out.DegreeHist)-1] == 0 {
		out.DegreeHist = out.DegreeHist[:len(out.DegreeHist)-1]
	}
	return out, nil
}

// ShardManifest decodes the manifest section, reporting ok=false when
// the store carries none (an ordinary, non-shard store).
func (l *LazyDataset) ShardManifest() (*ShardManifest, bool, error) {
	if _, found := findSection(l.sections, secManifest); !found {
		return nil, false, nil
	}
	b, err := l.sectionBytes(secManifest)
	if err != nil {
		return nil, true, err
	}
	if len(b) > maxJSONSection {
		return nil, true, fmt.Errorf("graph: manifest section of %d bytes", len(b))
	}
	var m ShardManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, true, fmt.Errorf("graph: decoding shard manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, true, err
	}
	return &m, true, nil
}
