package datasets

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"argo/internal/graph"
)

func TestRegistryNamesAndOrder(t *testing.T) {
	want := []string{"tiny", "flickr-sim", "arxiv-sim", "reddit-sim", "products-sim", "papers100m-sim"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestGetLegacyGraphNames(t *testing.T) {
	p, err := Get("ogbn-products")
	if err != nil {
		t.Fatal(err)
	}
	alias, err := Get("products-sim")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Spec, alias.Spec) {
		t.Fatal("products-sim and ogbn-products resolve to different specs")
	}
	if _, err := Get("no-such-dataset"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestArxivMatchesTableIII(t *testing.T) {
	p, err := Get("arxiv-sim")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.Paper.Vertices != 169_343 || p.Spec.Paper.Edges != 1_166_243 ||
		p.Spec.Paper.F0 != 128 || p.Spec.Paper.F2 != 40 {
		t.Fatalf("ogbn-arxiv paper stats drifted from Table III: %+v", p.Spec.Paper)
	}
}

// TestProfileInvariants is the property harness of the dataset registry:
// every profile's materialised graph must satisfy the CSR structural
// invariants (monotone sorted row offsets, in-bounds column indices,
// degree sums equal to the stored arc count), carry labels inside the
// class range, and split node IDs into disjoint in-range train/val/test
// sets covering the whole graph. Subtests run in parallel so the whole
// harness doubles as a race check on Build and the registry under
// `go test -race`.
func TestProfileInvariants(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ds, err := Build(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Validate(); err != nil {
				t.Fatal(err)
			}
			g := ds.Graph
			// Degree sums must equal the arc count both via RowPtr and by
			// recounting adjacency lists.
			var sum int64
			for v := 0; v < g.NumNodes; v++ {
				sum += int64(g.Degree(graph.NodeID(v)))
			}
			if sum != g.NumEdges() || sum != int64(len(g.Col)) {
				t.Fatalf("degree sum %d, NumEdges %d, len(Col) %d", sum, g.NumEdges(), len(g.Col))
			}
			// The generator symmetrizes: every arc needs its reverse.
			for v := 0; v < g.NumNodes; v++ {
				for _, u := range g.Neighbors(graph.NodeID(v)) {
					if !slices.Contains(g.Neighbors(u), graph.NodeID(v)) {
						t.Fatalf("arc %d→%d has no reverse", v, u)
					}
				}
			}
			// Splits partition the node set.
			seen := make(map[graph.NodeID]string, g.NumNodes)
			for _, split := range []struct {
				name string
				ids  []graph.NodeID
			}{{"train", ds.TrainIdx}, {"val", ds.ValIdx}, {"test", ds.TestIdx}} {
				for _, v := range split.ids {
					if prev, dup := seen[v]; dup {
						t.Fatalf("node %d in both %s and %s splits", v, prev, split.name)
					}
					seen[v] = split.name
				}
			}
			if len(seen) != g.NumNodes {
				t.Fatalf("splits cover %d of %d nodes", len(seen), g.NumNodes)
			}
		})
	}
}

func TestBuildDeterministicPerProfile(t *testing.T) {
	for _, name := range []string{"tiny", "arxiv-sim"} {
		a, err := Build(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two builds with the same seed differ", name)
		}
		c, err := Build(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Graph, c.Graph) {
			t.Fatalf("%s: different seeds produced an identical graph", name)
		}
	}
}

func TestResolveNameAndPath(t *testing.T) {
	built, err := Resolve("tiny", 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.argograph")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Resolve(path, 99) // seed must be ignored for paths
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Fatal("Resolve(path) differs from the saved dataset")
	}
	if _, err := Resolve("definitely-not-a-dataset", 1); err == nil {
		t.Fatal("unknown name resolved")
	}
}

// Every registry profile must round-trip through the binary store
// unchanged — the golden property of the .argograph format.
func TestEveryProfileRoundTripsThroughStore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ds, err := Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".argograph")
			if err := ds.Save(path); err != nil {
				t.Fatal(err)
			}
			back, err := graph.LoadDataset(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds, back) {
				t.Fatal("round trip changed the dataset")
			}
		})
	}
}
