package graph

import (
	"strings"
	"sync"
	"testing"
)

// The location table is the one answer to "where does node v live":
// for every node, under both partitioners and shard counts that do and
// do not divide the graph evenly, Locate must agree with the
// partitioner's assignment and with the owning shard's map.
func TestLocationsAgreeWithManifestAndMaps(t *testing.T) {
	ds := shardTestDataset(t)
	for _, part := range []string{"", "random"} {
		for _, k := range []int{1, 3, 4, 7} {
			opt := ShardOptions{K: k, Partitioner: part, Seed: 5}
			p, err := opt.partition(ds.Graph)
			if err != nil {
				t.Fatal(err)
			}
			ss := openTestShards(t, ds, opt)
			for v := 0; v < ds.Graph.NumNodes; v++ {
				shard, row, err := ss.Locate(NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				if want := int(p.Assign[v]); shard != want {
					t.Fatalf("%q k=%d: node %d located in shard %d, the partitioner assigned %d", part, k, v, shard, want)
				}
				sm, err := ss.ShardMap(shard)
				if err != nil {
					t.Fatal(err)
				}
				if local := sm.LocalID(NodeID(v)); int(local) != row {
					t.Fatalf("%q k=%d: node %d at row %d, shard map says local id %d", part, k, v, row, local)
				}
				if o, err := ss.Owner(NodeID(v)); err != nil || o != shard {
					t.Fatalf("Owner(%d) = %d, %v; Locate says %d", v, o, err, shard)
				}
			}
			for _, v := range []NodeID{-1, NodeID(ds.Graph.NumNodes)} {
				if _, _, err := ss.Locate(v); err == nil {
					t.Fatalf("Locate(%d) accepted a node outside the set", v)
				}
			}
		}
	}
}

// A shard map that owns a node twice, skips one, names an id outside
// the set, or owns more nodes than its manifest entry says fails when
// the table is built — before any gather — and keeps
// failing; a manifest whose split count disagrees with the maps is
// refused before the splits are assembled. Every reader of the set
// returns the error rather than panicking.
func TestLocationsRejectBadShardMaps(t *testing.T) {
	ds := shardTestDataset(t)
	n := NodeID(ds.Graph.NumNodes)
	for _, c := range []struct {
		name    string
		corrupt func(ss *ShardSet)
		want    string
		table   bool // the location table fails to build
	}{
		{"twice", func(ss *ShardSet) { ss.maps[2].Owned[0] = ss.maps[0].Owned[0] }, "owned by shards", true},
		{"skipped", func(ss *ShardSet) { ss.maps[2].Owned = ss.maps[2].Owned[1:] }, "own 299 of 300 nodes", true},
		{"out of range", func(ss *ShardSet) { ss.maps[2].Owned[len(ss.maps[2].Owned)-1] = n }, "outside", true},
		{"negative", func(ss *ShardSet) { ss.maps[2].Owned[0] = -3 }, "outside", true},
		{"moved", func(ss *ShardSet) {
			a, b := ss.maps[0], ss.maps[2]
			a.Owned, b.Owned = a.Owned[1:], append(b.Owned, a.Owned[0])
		}, "manifest says", true},
		{"train count", func(ss *ShardSet) { ss.Manifest.TrainCount++ }, "train/val/test nodes", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			ss := openTestShards(t, ds, ShardOptions{K: 3})
			for s := 0; s < ss.K(); s++ { // decode every map, so corrupt edits the ones the readers use
				if _, err := ss.ShardMap(s); err != nil {
					t.Fatal(err)
				}
			}
			c.corrupt(ss)
			if c.table {
				for i := 0; i < 2; i++ {
					if _, _, err := ss.Locations(); err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("Locations() = %v, want an error containing %q", err, c.want)
					}
				}
				if _, err := ss.Owner(0); err == nil {
					t.Fatal("Owner answered from a table that failed to build")
				}
			}
			readers := map[string]func() error{
				"Skeleton": func() error { _, err := ss.Skeleton(); return err },
			}
			if c.table {
				readers["Rows"] = func() error { _, _, err := ss.Rows(); return err }
			}
			for name, read := range readers {
				if err := read(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s() = %v, want an error containing %q", name, err, c.want)
				}
			}
		})
	}
}

// First use from many goroutines builds the table once (run under
// -race): every caller sees the same complete slices.
func TestLocationsConcurrentFirstUse(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, _ := writeTestShards(t, ds, 4)
	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	var wg sync.WaitGroup
	tables := make([][]int32, 8)
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := g; v < ds.Graph.NumNodes; v += len(tables) {
				if _, _, err := ss.Locate(NodeID(v)); err != nil {
					t.Error(err)
					return
				}
			}
			tables[g], _, _ = ss.Locations()
		}(g)
	}
	wg.Wait()
	for g := range tables {
		if len(tables[g]) != ds.Graph.NumNodes || &tables[g][0] != &tables[0][0] {
			t.Fatalf("goroutine %d saw a different table", g)
		}
	}
}
