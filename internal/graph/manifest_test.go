package graph

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// A shard set above 64 000 nodes opens under both partitioners. A
// version-1 manifest listed every node's owner as JSON runs only a few
// nodes long, which put this set's over the reader's 1 MiB JSON-section
// cap; a version-2 manifest grows with k, not with the graph.
func TestShardSetAbove64kNodesOpens(t *testing.T) {
	spec := DatasetSpec{
		Name:        "large",
		ScaledNodes: 65_000, ScaledEdges: 845_000,
		ScaledF0: 2, ScaledHidden: 2, ScaledClasses: 10, // narrow features keep the set small
		Homophily: 0.65, Exponent: 2.3, TrainFrac: 0.54,
	}
	ds, err := Build(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"greedy", "random"} {
		t.Run(part, func(t *testing.T) {
			_, paths, err := WriteShardSet(ds, t.TempDir(), "large", ShardOptions{K: 2, Partitioner: part, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			ss, err := OpenShardSet(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			skel, err := ss.Skeleton()
			if err != nil {
				t.Fatal(err)
			}
			if skel.Graph.NumNodes != ds.Graph.NumNodes || skel.Graph.NumEdges() != ds.Graph.NumEdges() {
				t.Fatalf("skeleton has %d nodes / %d arcs, want %d / %d",
					skel.Graph.NumNodes, skel.Graph.NumEdges(), ds.Graph.NumNodes, ds.Graph.NumEdges())
			}
		})
	}
}

// A manifest the reader would refuse is refused by the writer, before
// any shard file is written.
func TestWriteShardSetRefusesOversizedManifest(t *testing.T) {
	ds := shardTestDataset(t)
	ds.Spec.Name = strings.Repeat("x", maxJSONSection) // the spec rides in the manifest
	dir := t.TempDir()
	if _, _, err := WriteShardSet(ds, dir, "big", ShardOptions{K: 2}); err == nil || !strings.Contains(err.Error(), "manifest of") {
		t.Fatalf("WriteShardSet = %v, want an oversized-manifest error", err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("%d files written before the manifest was refused", len(files))
	}
}

// The manifest's own counts are checked before any shard is opened:
// every shard owns at least one node, the owned counts sum to the node
// count without overflowing, split counts sum to the manifest's, and
// only schema versions 1 and 2 are read.
func TestManifestValidateCounts(t *testing.T) {
	_, _, man := writeTestShards(t, shardTestDataset(t), 2)
	for _, c := range []struct {
		name   string
		edit   func(m *ShardManifest)
		reason string // empty: accepted
	}{
		{"as written", func(m *ShardManifest) {}, ""},
		{"version 1", func(m *ShardManifest) { m.Version = 1 }, ""},
		{"version 3", func(m *ShardManifest) { m.Version = 3 }, "schema version 3"},
		{"empty shard", func(m *ShardManifest) { m.Shards[0].Owned, m.Shards[1].Owned = 0, int(m.NumNodes) }, "owns 0 nodes"},
		{"short", func(m *ShardManifest) { m.Shards[1].Owned-- }, "own 299 of"},
		{"overflow", func(m *ShardManifest) { m.Shards[1].Owned = math.MaxInt64 }, "are left"},
		{"val count", func(m *ShardManifest) { m.ValCount++ }, "train/val/test"},
	} {
		m := *man
		m.Shards = slices.Clone(m.Shards)
		c.edit(&m)
		if err := m.Validate(); (err == nil) != (c.reason == "") || err != nil && !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.reason)
		}
	}
}

// v1Manifest re-encodes ss's manifest as schema version 1, which also
// carried every node's owner as JSON runs {start, count, shard}.
func v1Manifest(t testing.TB, ss *ShardSet) []byte {
	t.Helper()
	owner, _, err := ss.Locations()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		Start int64 `json:"start"`
		Count int64 `json:"count"`
		Shard int32 `json:"shard"`
	}
	var runs []run
	for v, s := range owner {
		if n := len(runs); n > 0 && runs[n-1].Shard == s {
			runs[n-1].Count++
		} else {
			runs = append(runs, run{int64(v), 1, s})
		}
	}
	b, err := json.Marshal(ss.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	fields["version"], fields["runs"] = 1, runs
	if b, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	return b
}

// A set whose shard 0 carries a version-1 manifest, owner runs and all,
// still opens and reassembles: the runs are ignored, and ownership is
// read from the shardmaps as for version 2.
func TestVersion1ManifestStillOpens(t *testing.T) {
	ds := shardTestDataset(t)
	_, paths, man := writeTestShards(t, ds, 3)
	lz, err := OpenLazy(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	shard0, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	smap, err := lz.sectionBytes(secShardMap)
	if err != nil {
		t.Fatal(err)
	}
	stats := lz.Stats()
	rewrite := func(manifest []byte) []byte {
		raw, err := encodeDataset(shard0, stats, []section{{secShardMap, smap}, {secManifest, manifest}})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// Re-encoding with the written manifest reproduces the file, so the
	// v1 rewrite changes the manifest section and nothing else.
	v2, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if orig, _ := os.ReadFile(paths[0]); !bytes.Equal(rewrite(v2), orig) {
		t.Fatal("re-encoding shard 0 with its own manifest changed its bytes")
	}
	orig, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	v1 := rewrite(v1Manifest(t, orig))
	orig.Close()
	lz.Close() // smap is a view of its mapping, so only now
	if err := os.WriteFile(paths[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Manifest.Version != 1 {
		t.Fatalf("reopened manifest is version %d, want 1", ss.Manifest.Version)
	}
	if !bytes.Equal(encodeBytes(t, assemble(t, ss)), encodeBytes(t, ds)) {
		t.Fatal("a set with a v1 manifest does not reassemble the original dataset")
	}
}

// The manifest decoder never panics, and any manifest it accepts is one
// the set's readers can trust: one entry per shard, owned counts that
// sum to the node count, and plain file names only.
func FuzzShardManifest(f *testing.F) {
	ss := openTestShards(f, shardTestDataset(f), ShardOptions{K: 3})
	v2, err := json.Marshal(ss.Manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v1Manifest(f, ss))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > maxJSONSection {
			return
		}
		var m ShardManifest
		if json.Unmarshal(b, &m) != nil || m.Validate() != nil {
			return
		}
		if m.K != len(m.Shards) {
			t.Fatalf("accepted k=%d with %d shard entries", m.K, len(m.Shards))
		}
		var owned int64
		for _, e := range m.Shards {
			if e.Owned < 1 {
				t.Fatalf("accepted a shard owning %d nodes", e.Owned)
			}
			owned += int64(e.Owned)
			if e.File == "" || e.File != filepath.Base(e.File) || strings.Contains(e.File, "/") || e.File == "." || e.File == ".." {
				t.Fatalf("accepted shard file %q", e.File)
			}
		}
		if owned != m.NumNodes {
			t.Fatalf("accepted entries owning %d of %d nodes", owned, m.NumNodes)
		}
	})
}
