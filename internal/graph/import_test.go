package graph

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestImportEdgeListBasics(t *testing.T) {
	in := `# a comment line
src,dst
0,1
1,2
2 3
3	0
0,2
0,1
4;1
% matrix-market style comment
`
	ds, err := ImportEdgeList(strings.NewReader(in), ImportOptions{Name: "web", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Spec.Name != "web" || ds.Graph.NumNodes != 5 {
		t.Fatalf("spec %+v, %d nodes", ds.Spec, ds.Graph.NumNodes)
	}
	// 6 distinct undirected edges → 12 arcs (duplicate 0-1 deduped).
	if ds.Graph.NumEdges() != 12 {
		t.Fatalf("%d arcs, want 12", ds.Graph.NumEdges())
	}
	// Symmetry: u→v implies v→u.
	for v := 0; v < ds.Graph.NumNodes; v++ {
		for _, u := range ds.Graph.Neighbors(NodeID(v)) {
			found := false
			for _, w := range ds.Graph.Neighbors(u) {
				if int(w) == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("arc %d→%d has no reverse", v, u)
			}
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Synthesised defaults.
	if ds.Features.Cols != 16 || ds.NumClasses != 4 {
		t.Fatalf("defaults: %d-wide features, %d classes", ds.Features.Cols, ds.NumClasses)
	}

	// Determinism: the same input and seed produce identical datasets.
	again, err := ImportEdgeList(strings.NewReader(in), ImportOptions{Name: "web", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Features.Equal(again.Features) {
		t.Fatal("synthesised features not deterministic")
	}
	for i := range ds.Labels {
		if ds.Labels[i] != again.Labels[i] {
			t.Fatal("synthesised labels not deterministic")
		}
	}
	for i := range ds.TrainIdx {
		if ds.TrainIdx[i] != again.TrainIdx[i] {
			t.Fatal("split shuffle not deterministic")
		}
	}
}

func TestImportEdgeListDirected(t *testing.T) {
	ds, err := ImportEdgeList(strings.NewReader("0 1\n1 2\n"), ImportOptions{Directed: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumEdges() != 2 {
		t.Fatalf("%d arcs, want 2 (directed)", ds.Graph.NumEdges())
	}
	if len(ds.Graph.Neighbors(1)) != 1 || ds.Graph.Neighbors(1)[0] != 2 {
		t.Fatalf("node 1 adjacency %v", ds.Graph.Neighbors(1))
	}
	// Directed specs record raw arcs; symmetrised specs record edges.
	if ds.Spec.ScaledEdges != 2 {
		t.Fatalf("directed spec records %d edges, want 2", ds.Spec.ScaledEdges)
	}
}

func TestImportWithLabelAndFeatureCSVs(t *testing.T) {
	edges := "0 1\n1 2\n2 0\n"
	labels := "node,label\n0,1\n2,0\n1,1\n"
	feats := "0,0.5,-1\n1,2,3\n2,-0.25,4\n"
	ds, err := ImportEdgeList(strings.NewReader(edges), ImportOptions{
		Seed:     1,
		Labels:   strings.NewReader(labels),
		Features: strings.NewReader(feats),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClasses != 2 {
		t.Fatalf("%d classes, want 2 (max label + 1)", ds.NumClasses)
	}
	if ds.Labels[0] != 1 || ds.Labels[1] != 1 || ds.Labels[2] != 0 {
		t.Fatalf("labels %v", ds.Labels)
	}
	if ds.Features.Cols != 2 {
		t.Fatalf("feature width %d, want 2", ds.Features.Cols)
	}
	if row := ds.Features.Row(2); row[0] != -0.25 || row[1] != 4 {
		t.Fatalf("node 2 features %v", row)
	}
}

func TestImportRejectsBadInput(t *testing.T) {
	cases := map[string]struct {
		edges string
		opt   ImportOptions
	}{
		"empty":            {"", ImportOptions{}},
		"only comments":    {"# nothing\n", ImportOptions{}},
		"one field":        {"0 1\n7\n", ImportOptions{}},
		"negative id":      {"0 -3\n", ImportOptions{}},
		"non-integer":      {"0 1\n2 x\n", ImportOptions{}},
		"huge id":          {"0 999999999999\n", ImportOptions{}},
		"label twice":      {"0 1\n", ImportOptions{Labels: strings.NewReader("0,1\n0,1\n1,0\n")}},
		"label missing":    {"0 1\n", ImportOptions{Labels: strings.NewReader("0,1\n")}},
		"label oob node":   {"0 1\n", ImportOptions{Labels: strings.NewReader("0,0\n1,0\n9,0\n")}},
		"feat width skew":  {"0 1\n", ImportOptions{Features: strings.NewReader("0,1,2\n1,3\n")}},
		"feat non-number":  {"0 1\n", ImportOptions{Features: strings.NewReader("0,a\n1,2\n")}},
		"feat NaN":         {"0 1\n", ImportOptions{Features: strings.NewReader("0,1\n1,NaN\n")}},
		"feat -inf":        {"0 1\n", ImportOptions{Features: strings.NewReader("0,-inf\n1,2\n")}},
		"feat missing row": {"0 1\n", ImportOptions{Features: strings.NewReader("0,1\n")}},
	}
	for name, c := range cases {
		if _, err := ImportEdgeList(strings.NewReader(c.edges), c.opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// An imported dataset must be a first-class store citizen: save,
// verify, reload, and shard like any generated workload.
func TestImportedDatasetRoundTripsAndShards(t *testing.T) {
	var sb strings.Builder
	for v := 0; v < 60; v++ {
		fmt.Fprintf(&sb, "%d %d\n", v, (v+1)%60)
		fmt.Fprintf(&sb, "%d %d\n", v, (v+7)%60)
	}
	ds, err := ImportEdgeList(strings.NewReader(sb.String()), ImportOptions{Name: "ring", Seed: 2, TrainFrac: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyStore(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Features.Equal(ds.Features) || loaded.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("imported store did not round-trip")
	}
	ss, err := ShardSetFromDataset(ds, ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := ss.AssembleDataset()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Features.Equal(ds.Features) {
		t.Fatal("sharding an imported dataset is not invertible")
	}
}

// longDigitRun matches a number wider than four digits: the node space
// is dense, [0, maxID], so one large id allocates a row for every id
// below it.
var longDigitRun = regexp.MustCompile(`[0-9]{5}`)

// FuzzImportEdgeList drives the importer with arbitrary edge, label and
// feature files. It must never panic, and every dataset it accepts must
// be valid and hold only finite features.
func FuzzImportEdgeList(f *testing.F) {
	f.Add([]byte("src,dst\n# a comment\n0,1\n1 2\n2\t0\n"), []byte(nil), []byte(nil), false)
	f.Add([]byte("% directed\n0 1 0.5\n1 2\n"), []byte("node,label\n0,1\n1,0\n2,1\n"), []byte(nil), true)
	f.Add([]byte("0 1\n"), []byte(nil), []byte("0,NaN\n1,2\n"), false)
	f.Fuzz(func(t *testing.T, edges, labels, feats []byte, directed bool) {
		if len(edges)+len(labels)+len(feats) > 4<<10 || longDigitRun.Match(edges) ||
			longDigitRun.Match(labels) || longDigitRun.Match(feats) {
			t.Skip()
		}
		opt := ImportOptions{Directed: directed, Seed: 1}
		if len(labels) > 0 {
			opt.Labels = bytes.NewReader(labels)
		}
		if len(feats) > 0 {
			opt.Features = bytes.NewReader(feats)
		}
		ds, err := ImportEdgeList(bytes.NewReader(edges), opt)
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted an invalid dataset: %v", err)
		}
		for i, x := range ds.Features.Data {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("accepted non-finite feature %v at element %d", x, i)
			}
		}
	})
}
