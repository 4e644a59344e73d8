package datasets

import (
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/graph"
)

func TestParseShardSpec(t *testing.T) {
	cases := []struct {
		in   string
		base string
		k    int
		ok   bool
	}{
		{"tiny#4", "tiny", 4, true},
		{"arxiv-sim#2", "arxiv-sim", 2, true},
		{"tiny", "tiny", 0, true},
		{"dir/set.shard0.argograph", "dir/set.shard0.argograph", 0, true},
		{"tiny#0", "", 0, false},
		{"tiny#x", "", 0, false},
		{"#4", "", 0, false},
	}
	for _, c := range cases {
		base, k, err := ParseShardSpec(c.in)
		if c.ok && (err != nil || base != c.base || k != c.k) {
			t.Fatalf("ParseShardSpec(%q) = %q,%d,%v want %q,%d", c.in, base, k, err, c.base, c.k)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseShardSpec(%q) accepted", c.in)
		}
	}
}

// name#k resolution builds the same set the file path round trip yields.
func TestResolveShardsNameAndPathAgree(t *testing.T) {
	byName, err := ResolveShards("tiny#3", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer byName.Close()
	if byName.K() != 3 {
		t.Fatalf("k=%d", byName.K())
	}
	if err := byName.Validate(); err != nil {
		t.Fatal(err)
	}

	ds, err := Build("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, paths, err := graph.WriteShardSet(ds, dir, "tiny", graph.ShardOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byPath, err := ResolveShards(paths[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer byPath.Close()
	a, err := byName.AssembleDataset()
	if err != nil {
		t.Fatal(err)
	}
	b, err := byPath.AssembleDataset()
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() || len(a.TrainIdx) != len(b.TrainIdx) {
		t.Fatal("name#k and stored shard set assemble differently")
	}
	for i := range a.TrainIdx {
		if a.TrainIdx[i] != b.TrainIdx[i] {
			t.Fatalf("train order diverges at %d", i)
		}
	}
}

func TestResolveShardsErrors(t *testing.T) {
	if _, err := ResolveShards("no-such-profile#2", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := ResolveShards(filepath.Join(t.TempDir(), "missing.argograph"), 1); err == nil ||
		!strings.Contains(err.Error(), "neither") {
		t.Fatalf("missing path: %v", err)
	}
}
