package graph

import (
	"fmt"
	"sort"

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

// assembleTopology reconstructs the global CSR from the shards' local
// topologies and maps — topology-only opens, no feature bytes.
func (ss *ShardSet) assembleTopology() (*CSR, error) {
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
