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

// profileSpecs are the specs Get returned for the six profiles before the
// four Table III specs moved here from internal/graph, each with the
// paper name that resolves to the same profile.
var profileSpecs = []struct {
	profile, paper string
	spec           graph.DatasetSpec
}{
	{"tiny", "tiny", graph.DatasetSpec{Name: "tiny", Paper: graph.PaperStats{Vertices: 120, Edges: 480, F0: 16, F1: 8, F2: 3},
		ScaledNodes: 120, ScaledEdges: 480, ScaledF0: 16, ScaledHidden: 8, ScaledClasses: 3, Homophily: 0.7, Exponent: 2.1, TrainFrac: 0.5}},
	{"flickr-sim", "flickr", graph.DatasetSpec{Name: "flickr", Paper: graph.PaperStats{Vertices: 89250, Edges: 899756, F0: 500, F1: 128, F2: 7},
		ScaledNodes: 1800, ScaledEdges: 18000, ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 7, Homophily: 0.55, Exponent: 2.3, TrainFrac: 0.5}},
	{"arxiv-sim", "ogbn-arxiv", graph.DatasetSpec{Name: "ogbn-arxiv", Paper: graph.PaperStats{Vertices: 169343, Edges: 1166243, F0: 128, F1: 128, F2: 40},
		ScaledNodes: 2000, ScaledEdges: 26000, ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 10, Homophily: 0.65, Exponent: 2.3, TrainFrac: 0.54}},
	{"reddit-sim", "reddit", graph.DatasetSpec{Name: "reddit", Paper: graph.PaperStats{Vertices: 232965, Edges: 11606919, F0: 602, F1: 128, F2: 41},
		ScaledNodes: 2400, ScaledEdges: 120000, ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 16, Homophily: 0.6, Exponent: 2, TrainFrac: 0.66}},
	{"products-sim", "ogbn-products", graph.DatasetSpec{Name: "ogbn-products", Paper: graph.PaperStats{Vertices: 2449029, Edges: 61859140, F0: 100, F1: 128, F2: 47},
		ScaledNodes: 4000, ScaledEdges: 100000, ScaledF0: 50, ScaledHidden: 32, ScaledClasses: 12, Homophily: 0.65, Exponent: 2.1, TrainFrac: 0.1}},
	{"papers100m-sim", "ogbn-papers100M", graph.DatasetSpec{Name: "ogbn-papers100M", Paper: graph.PaperStats{Vertices: 111059956, Edges: 1615685872, F0: 128, F1: 128, F2: 172},
		ScaledNodes: 6000, ScaledEdges: 90000, ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 16, Homophily: 0.5, Exponent: 2.2, TrainFrac: 0.012}},
}

// Get resolves a profile by its own name and by its paper name, each
// with and without a scale suffix, to the pinned spec.
func TestGetResolvesProfileAndPaperNames(t *testing.T) {
	for _, c := range profileSpecs {
		scaled := c.spec
		scaled.Name += "@x16"
		scaled.ScaledNodes *= 16
		scaled.ScaledEdges *= 16
		for _, name := range []string{c.profile, c.paper} {
			for suffix, want := range map[string]graph.DatasetSpec{"": c.spec, "@x16": scaled} {
				p, err := Get(name + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.Spec, want) {
					t.Fatalf("Get(%q).Spec = %+v, want %+v", name+suffix, p.Spec, want)
				}
			}
		}
	}
	for _, name := range []string{"no-such-dataset", "products", "ogbn-products@x1", "ogbn-products@xx"} {
		if _, err := Get(name); err == nil {
			t.Fatalf("Get(%q) accepted", name)
		}
	}
}

// A paper name (the name graph's spec table once used) resolves to the
// same spec as its profile.
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

func TestRegistryMatchesTableIII(t *testing.T) {
	want := map[string]graph.PaperStats{
		"flickr":          {Vertices: 89_250, Edges: 899_756, F0: 500, F1: 128, F2: 7},
		"reddit":          {Vertices: 232_965, Edges: 11_606_919, F0: 602, F1: 128, F2: 41},
		"ogbn-products":   {Vertices: 2_449_029, Edges: 61_859_140, F0: 100, F1: 128, F2: 47},
		"ogbn-papers100M": {Vertices: 111_059_956, Edges: 1_615_685_872, F0: 128, F1: 128, F2: 172},
	}
	for name, w := range want {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.Paper != w {
			t.Fatalf("%s paper stats = %+v, want %+v", name, p.Spec.Paper, w)
		}
	}
}

func TestScaledSizesAreTestFriendly(t *testing.T) {
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Spec.ScaledNodes > 10_000 || p.Spec.ScaledEdges > 200_000 {
			t.Fatalf("%s scaled instance too large for 1-core test runs", name)
		}
		if p.Spec.ScaledClasses < 2 {
			t.Fatalf("%s needs ≥2 classes", name)
		}
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
