package graph

import (
	"fmt"
	"slices"

	"argo/internal/tensor"
)

// Skeleton reconstructs the global dataset's training scaffolding —
// topology, splits (in original order), spec, class count — without
// materialising any feature or label bytes. It is what the shard-aware
// trainer hands the engine: features and labels stay shard-resident and
// flow through the halo exchange instead.
func (ss *ShardSet) Skeleton() (*Dataset, error) {
	g, err := ss.assembleTopology()
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
	shard, row, err := ss.Locations()
	if err != nil {
		return nil, err
	}
	m := &ss.Manifest
	sfs, sls := make([]*tensor.Matrix, m.K), make([][]int32, m.K)
	for s := range sfs {
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, err
		}
		if sfs[s], err = lz.Features(); err != nil {
			return nil, err
		}
		if sls[s], err = lz.Labels(); err != nil {
			return nil, err
		}
		if sfs[s].Cols != m.FeatDim || sfs[s].Rows < m.Shards[s].Owned || len(sls[s]) < m.Shards[s].Owned {
			return nil, fmt.Errorf("graph: shard %d features/labels smaller than its owned set", s)
		}
	}
	// Only owned rows are authoritative; halo rows are caches.
	skel.Features = tensor.New(len(shard), m.FeatDim)
	skel.Labels = make([]int32, len(shard))
	for v, s := range shard {
		copy(skel.Features.Row(v), sfs[s].Row(int(row[v])))
		skel.Labels[v] = sls[s][row[v]]
	}
	if err := skel.Validate(); err != nil {
		return nil, fmt.Errorf("graph: assembled dataset invalid: %w", err)
	}
	return skel, nil
}

// assembleTopology reconstructs the global CSR node by node through the
// location table, from the owning shards' local topologies and maps —
// topology-only opens, no feature bytes.
func (ss *ShardSet) assembleTopology() (*CSR, error) {
	shard, row, err := ss.Locations()
	if err != nil {
		return nil, err
	}
	m := &ss.Manifest
	maps, lgs := make([]*ShardMap, m.K), make([]*CSR, m.K)
	for s := range maps {
		if maps[s], err = ss.ShardMap(s); err != nil {
			return nil, err
		}
		lz, err := ss.Shard(s)
		if err != nil {
			return nil, err
		}
		if lgs[s], err = lz.Topology(); err != nil {
			return nil, err
		}
		if lgs[s].NumNodes != len(maps[s].Owned)+len(maps[s].Halo) {
			return nil, fmt.Errorf("graph: shard %d CSR and map disagree on node count", s)
		}
	}
	n := len(shard)
	g := &CSR{NumNodes: n, RowPtr: make([]int64, n+1)}
	for v, s := range shard {
		g.RowPtr[v+1] = g.RowPtr[v] + int64(lgs[s].Degree(NodeID(row[v])))
	}
	g.Col = make([]NodeID, g.RowPtr[n])
	for v, s := range shard {
		adj := g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
		for j, u := range lgs[s].Neighbors(NodeID(row[v])) {
			if adj[j], err = maps[s].GlobalID(u); err != nil {
				return nil, err
			}
		}
		slices.Sort(adj)
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
// original order from the shards' rank records. Each list is as long as
// the maps' rank lists together, which the manifest's counts must match.
func (ss *ShardSet) assembleSplits() (train, val, test []NodeID, err error) {
	m := &ss.Manifest
	maps := make([]*ShardMap, m.K)
	var counts [3]int
	for s := range maps {
		if maps[s], err = ss.ShardMap(s); err != nil {
			return nil, nil, nil, err
		}
		for si, ranks := range [][]int64{maps[s].TrainRank, maps[s].ValRank, maps[s].TestRank} {
			counts[si] += len(ranks)
		}
	}
	if want := [3]int{m.TrainCount, m.ValCount, m.TestCount}; counts != want {
		return nil, nil, nil, fmt.Errorf("graph: shard maps rank %d/%d/%d train/val/test nodes, manifest says %d/%d/%d",
			counts[0], counts[1], counts[2], want[0], want[1], want[2])
	}
	var out [3][]NodeID
	var filled [3][]bool
	for si, c := range counts {
		out[si], filled[si] = make([]NodeID, c), make([]bool, c)
	}
	for s, sm := range maps {
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
