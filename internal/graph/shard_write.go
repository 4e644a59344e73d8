package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"

	"argo/internal/tensor"
)

// A shard set splits one dataset into k .argograph stores, one per
// graph partition. Each shard is an ordinary dataset store over its
// *local* node space — owned nodes first (ascending global id), then
// the 1-hop halo (ghost) nodes its cut edges reference — carrying local
// CSR, features (halo rows cached, HyScale-GNN style), labels, splits,
// and a stats section whose Shard field records the halo and degree
// profile. Two extra sections ride the extensible section table without
// a store-format version bump:
//
//   - shardmap (id 7, every shard): the binary local↔global node map
//     plus the global ranks of the shard's split entries, which is what
//     makes reassembly exact (including split *order*, so a sharded
//     training run shuffles identically to a single-store one);
//   - manifest (id 8, shard 0 only): the ShardManifest JSON, the global
//     shape plus one summary per shard. It grows with k, not with the
//     graph: which shard owns a node is read from the shardmaps alone
//     (ShardSet.Locations).
//
// A reader that predates these sections still verifies (CRC-only) and
// loads every shard as a plain dataset store; that forward-compat
// promise is pinned by TestShardStoresArePlainStores. The dataset
// resolver behind the commands refuses such a store, so no command reads
// or writes the format: it stays only because benchmark/train.go writes
// a set (WriteShardSet), opens it (OpenShardSet) and trains on it
// (Skeleton, Rows, and the ShardMap / Owner the local regime reads).
//
// This file writes shard sets; shard_open.go opens and locates them, and
// shard_assemble.go rebuilds the global topology, splits and feature
// table.

// ShardManifest describes a shard set: the global shape and one entry
// per shard. It is stored as JSON in the manifest section of shard 0.
type ShardManifest struct {
	Version    int    `json:"version"` // manifest schema version, 2 (1 also read)
	Base       string `json:"base"`    // shard file basename stem
	K          int    `json:"k"`
	NumNodes   int64  `json:"num_nodes"`
	NumArcs    int64  `json:"num_arcs"`
	NumClasses int    `json:"num_classes"`
	FeatDim    int    `json:"feat_dim"`
	// FeatDtype is the set-wide feature encoding ("fp16", or empty for
	// fp32 so pre-dtype manifests are byte-unchanged). Every shard store
	// carries the same dtype.
	FeatDtype   string       `json:"feat_dtype,omitempty"`
	TrainCount  int          `json:"train_count"`
	ValCount    int          `json:"val_count"`
	TestCount   int          `json:"test_count"`
	Partitioner string       `json:"partitioner"`
	Seed        int64        `json:"seed"`
	Spec        DatasetSpec  `json:"spec"` // the global dataset's spec
	Shards      []ShardEntry `json:"shards"`
}

// ShardEntry summarises one shard of the set.
type ShardEntry struct {
	Index   int    `json:"index"`
	File    string `json:"file"` // a plain file name in the manifest store's directory
	Owned   int    `json:"owned"`
	Halo    int    `json:"halo"`
	Arcs    int64  `json:"arcs"`     // arcs stored (all neighbours of owned nodes)
	CutArcs int64  `json:"cut_arcs"` // arcs from owned nodes to halo nodes
	Train   int    `json:"train"`
	Val     int    `json:"val"`
	Test    int    `json:"test"`
}

// manifestVersion is the ShardManifest schema version written. Version 1
// also carried each node's owner as JSON runs ("runs"), which readers
// ignore: ownership is read from the shardmaps.
const manifestVersion = 2

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

// ShardOptions configures WriteShardSet.
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
// manifest, for WriteShardSet to encode.
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
	}

	owned := make([][]NodeID, k)
	for v := 0; v < g.NumNodes; v++ {
		s := p.Assign[v]
		owned[s] = append(owned[s], NodeID(v)) // ascending by construction
	}

	// Split membership per shard, in global-list order, with global
	// ranks recorded for exact reassembly.
	type splitRef struct {
		globals []NodeID // mapped to local ids once the shard's are known
		ranks   []int64
	}
	splits := [3][]NodeID{d.TrainIdx, d.ValIdx, d.TestIdx}
	perShard := make([][3]splitRef, k)
	for si, split := range splits {
		for rank, v := range split {
			s := p.Assign[v]
			perShard[s][si].globals = append(perShard[s][si].globals, v)
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
		for l, v := range slices.Concat(own, halo) {
			copy(feats.Row(l), d.Features.Row(int(v)))
			labels[l] = d.Labels[v]
		}

		sm := &ShardMap{Shard: s, K: k, Owned: own, Halo: halo}
		var localSplits [3][]NodeID
		for si := range splits {
			ref := perShard[s][si]
			locals := make([]NodeID, len(ref.globals))
			for j, v := range ref.globals {
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
// the written paths, shard order. It stays only because
// benchmark/train.go calls it.
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
	if len(manJSON) > maxJSONSection {
		return nil, nil, fmt.Errorf("graph: shard manifest of %d bytes exceeds the %d a reader accepts (lower -k)", len(manJSON), maxJSONSection)
	}
	paths := make([]string, len(builds))
	for s, b := range builds {
		extras := []section{{secShardMap, encodeShardMap(b.sm)}}
		if s == 0 {
			extras = append(extras, section{secManifest, manJSON})
		}
		raw, err := encodeDataset(b.ds, b.stats, extras)
		if err != nil {
			return nil, nil, err
		}
		paths[s] = filepath.Join(dir, man.Shards[s].File)
		if err := saveAtomic(paths[s], raw); err != nil {
			return nil, nil, fmt.Errorf("graph: writing shard %d: %w", s, err)
		}
	}
	return man, paths, nil
}
