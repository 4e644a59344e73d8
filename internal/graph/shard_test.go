package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

func shardTestDataset(t testing.TB) *Dataset {
	t.Helper()
	spec := DatasetSpec{
		Name:        "shardtest",
		ScaledNodes: 300, ScaledEdges: 1800,
		ScaledF0: 12, ScaledHidden: 8, ScaledClasses: 4,
		Homophily: 0.6, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := Build(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func writeTestShards(t *testing.T, ds *Dataset, k int) (dir string, paths []string, man *ShardManifest) {
	t.Helper()
	dir = t.TempDir()
	man, paths, err := WriteShardSet(ds, dir, "shardtest", ShardOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return dir, paths, man
}

func encodeBytes(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Sharding and reassembly are exact inverses, and both directions are
// byte-stable: sharding the same dataset twice produces identical
// files, and sharding the reassembled dataset reproduces the originals
// byte for byte. This is the acceptance gate for `argo-data shard`.
func TestShardSetRoundTripByteStable(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, _ := writeTestShards(t, ds, 4)

	// Same input, second run: every file byte-identical.
	dir2 := t.TempDir()
	if _, paths2, err := WriteShardSet(ds, dir2, "shardtest", ShardOptions{K: 4}); err != nil {
		t.Fatal(err)
	} else {
		for i := range paths {
			a, _ := os.ReadFile(paths[i])
			b, _ := os.ReadFile(paths2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("shard %d not byte-stable across identical runs", i)
			}
		}
	}

	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	asm, err := ss.AssembleDataset()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, asm), encodeBytes(t, ds)) {
		t.Fatal("assembled dataset does not re-encode to the original bytes")
	}

	// Shard the reassembly: files must reproduce the originals exactly.
	dir3 := t.TempDir()
	_, paths3, err := WriteShardSet(asm, dir3, "shardtest", ShardOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		a, _ := os.ReadFile(paths[i])
		b, _ := os.ReadFile(paths3[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d of the reassembled dataset differs from the original shard", i)
		}
	}
}

// Every shard is an ordinary v2 dataset store: it verifies end to end
// (the shard sections are CRC-checked without being decoded) and loads
// through the plain LoadDataset entry point — the forward-compat
// promise that lets pre-shard readers handle shard stores.
func TestShardStoresArePlainStores(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, man := writeTestShards(t, ds, 3)
	for i, p := range paths {
		check, err := VerifyStore(p)
		if err != nil {
			t.Fatalf("shard %d failed verify: %v", i, err)
		}
		want := []string{"spec", "stats", "csr", "features", "labels", "splits", "shardmap"}
		if i == 0 {
			want = append(want, "manifest")
		}
		var names []string
		for _, s := range check.Sections {
			names = append(names, s.Name)
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("shard %d sections %v, want %v", i, names, want)
		}
		local, err := LoadDataset(p)
		if err != nil {
			t.Fatalf("shard %d failed plain load: %v", i, err)
		}
		if local.Graph.NumNodes != man.Shards[i].Owned+man.Shards[i].Halo {
			t.Fatalf("shard %d has %d local nodes, manifest says %d+%d",
				i, local.Graph.NumNodes, man.Shards[i].Owned, man.Shards[i].Halo)
		}
		lz, err := OpenLazy(p)
		if err != nil {
			t.Fatal(err)
		}
		st := lz.Stats()
		lz.Close()
		if st.Shard == nil || st.Shard.Index != i || st.Shard.Count != 3 ||
			st.Shard.Owned != man.Shards[i].Owned || st.Shard.Halo != man.Shards[i].Halo ||
			st.Shard.CutArcs != man.Shards[i].CutArcs {
			t.Fatalf("shard %d stats profile %+v disagrees with manifest entry %+v", i, st.Shard, man.Shards[i])
		}
	}
}

// Validate and Skeleton are topology-only: no shard's feature section is
// materialised, which is what lets a set be checked and its skeleton
// built over out-of-core stores.
func TestShardValidateIsTopologyOnly(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, _ := writeTestShards(t, ds, 4)
	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Skeleton(); err != nil {
		t.Fatal(err)
	}
	for i, lz := range ss.lazies {
		if lz == nil {
			t.Fatalf("shard %d never opened during validation", i)
		}
		if lz.feats != nil {
			t.Fatalf("shard %d's features were materialised by a topology-only pass", i)
		}
	}
}

// The in-memory constructor produces exactly the shards the file writer
// stores, so `argo-train -shards name#k` and a pre-sharded store train
// identically.
func TestShardSetFromDatasetMatchesFiles(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, man := writeTestShards(t, ds, 3)
	mem, err := ShardSetFromDataset(ds, ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if !reflect.DeepEqual(*man, mem.Manifest) {
		t.Fatalf("in-memory manifest differs from written one:\n%+v\n%+v", mem.Manifest, *man)
	}
	for i := range paths {
		onDisk, err := LoadDataset(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		lz, err := mem.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		inMem, err := lz.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeBytes(t, onDisk), encodeBytes(t, inMem)) {
			t.Fatalf("shard %d differs between file and in-memory construction", i)
		}
	}
}

// Owner resolution agrees with the shard maps, and LocalID/GlobalID are
// inverses over every shard's node space.
func TestShardOwnerAndLocalGlobalMaps(t *testing.T) {
	ds := shardTestDataset(t)
	ss, err := ShardSetFromDataset(ds, ShardOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ownerOf := make([]int, ds.Graph.NumNodes)
	for v := 0; v < ds.Graph.NumNodes; v++ {
		o, err := ss.Owner(NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		ownerOf[v] = o
	}
	counted := 0
	for s := 0; s < ss.K(); s++ {
		sm, err := ss.ShardMap(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range sm.Owned {
			if ownerOf[v] != s {
				t.Fatalf("node %d owned by shard %d per map, %d per Owner", v, s, ownerOf[v])
			}
			counted++
		}
		for l := 0; l < len(sm.Owned)+len(sm.Halo); l++ {
			g, err := sm.GlobalID(NodeID(l))
			if err != nil {
				t.Fatal(err)
			}
			if back := sm.LocalID(g); back != NodeID(l) {
				t.Fatalf("shard %d: local %d → global %d → local %d", s, l, g, back)
			}
		}
		if sm.LocalID(NodeID(ds.Graph.NumNodes+5)) != -1 {
			t.Fatal("LocalID resolved a node outside the graph")
		}
	}
	if counted != ds.Graph.NumNodes {
		t.Fatalf("shards own %d of %d nodes", counted, ds.Graph.NumNodes)
	}
	if _, err := ss.Owner(-1); err == nil {
		t.Fatal("Owner accepted a negative node id")
	}
}

// The random partitioner shards too, and records itself in the
// manifest; unknown partitioners and degenerate shard counts fail fast.
func TestShardOptionsPartitioners(t *testing.T) {
	ds := shardTestDataset(t)
	ss, err := ShardSetFromDataset(ds, ShardOptions{K: 2, Partitioner: "random", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Manifest.Partitioner != "random" || ss.Manifest.Seed != 5 {
		t.Fatalf("manifest records %q/%d", ss.Manifest.Partitioner, ss.Manifest.Seed)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ShardSetFromDataset(ds, ShardOptions{K: 2, Partitioner: "metis"}); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if _, err := ShardSetFromDataset(ds, ShardOptions{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ShardSetFromDataset(ds, ShardOptions{K: ds.Graph.NumNodes + 1}); err == nil {
		t.Fatal("k > nodes accepted")
	}
}

// Opening a non-shard store as a shard set fails with a clear message,
// and a corrupted manifest section is caught by its CRC.
func TestOpenShardSetRejectsNonShardAndCorruptStores(t *testing.T) {
	ds := shardTestDataset(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.argograph")
	if err := ds.Save(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardSet(plain); err == nil || !strings.Contains(err.Error(), "no manifest section") {
		t.Fatalf("plain store opened as shard set: %v", err)
	}

	_, paths, _ := writeTestShards(t, ds, 2)
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40 // inside the manifest JSON, the last section
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardSet(paths[0]); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt manifest not caught: %v", err)
	}
}

// A shard set whose partition starves any shard of training nodes is
// refused at write time rather than failing mid-train.
func TestShardSetRefusesTrainStarvedShards(t *testing.T) {
	spec := DatasetSpec{
		Name:        "starve",
		ScaledNodes: 40, ScaledEdges: 160,
		ScaledF0: 4, ScaledHidden: 4, ScaledClasses: 2,
		Homophily: 0.6, Exponent: 2.2, TrainFrac: 0.05, // 2 train nodes
	}
	ds, err := Build(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShardSetFromDataset(ds, ShardOptions{K: 8}); err == nil ||
		!(strings.Contains(err.Error(), "training nodes") || strings.Contains(err.Error(), "owns no nodes")) {
		t.Fatalf("train-starved sharding accepted: %v", err)
	}
}

// The manifest cost accessors' totals must agree with the per-shard
// entries.
func TestManifestCostAccessors(t *testing.T) {
	ds := shardTestDataset(t)
	ss, err := ShardSetFromDataset(ds, ShardOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	m := &ss.Manifest
	var want int64
	for _, e := range m.Shards {
		want += e.CutArcs
	}
	if got := m.TotalCutArcs(); got != want || got == 0 {
		t.Fatalf("TotalCutArcs %d, want %d (non-zero)", got, want)
	}
	frac := m.EdgeCutFraction()
	if frac <= 0 || frac >= 1 {
		t.Fatalf("EdgeCutFraction %v", frac)
	}
	if frac != float64(want)/float64(m.NumArcs) {
		t.Fatalf("EdgeCutFraction %v inconsistent with totals", frac)
	}
}

// A manifest may only name shard files in its own directory: the writer
// emits plain file names, and anything else is refused before a shard
// is opened.
func TestManifestValidateConfinesShardFiles(t *testing.T) {
	ss, err := ShardSetFromDataset(shardTestDataset(t), ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, c := range []struct {
		file string
		ok   bool
	}{
		{"shardtest.shard1.argograph", true},
		{"other-name.argograph", true},
		{"../../etc/x.argograph", false},
		{"../x.argograph", false},
		{"sub/x.argograph", false},
		{"/abs/x.argograph", false},
		{"..", false},
		{".", false},
		{"", false},
	} {
		m := ss.Manifest
		m.Shards = slices.Clone(m.Shards)
		m.Shards[1].File = c.file
		if err := m.Validate(); (err == nil) != c.ok {
			t.Errorf("shard file %q: Validate() = %v, want ok=%v", c.file, err, c.ok)
		}
	}
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
