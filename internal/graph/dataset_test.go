// These tests build a Table III dataset through its internal/datasets
// profile, which imports this package, so they are an external test
// package.
package graph_test

import (
	"reflect"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
)

// A paper dataset's spec is looked up by its paper name through its
// profile; an unknown name is an error.
func TestSpecLookup(t *testing.T) {
	p, err := datasets.Get("reddit")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.Name != "reddit" {
		t.Fatalf("Get(reddit).Spec.Name = %q", p.Spec.Name)
	}
	if _, err := datasets.Get("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBuildDataset(t *testing.T) {
	ds, err := datasets.Build("flickr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumNodes != ds.Spec.ScaledNodes {
		t.Fatalf("graph size %d != spec %d", ds.Graph.NumNodes, ds.Spec.ScaledNodes)
	}
	if ds.Features.Rows != ds.Spec.ScaledNodes || ds.Features.Cols != ds.Spec.ScaledF0 {
		t.Fatalf("features %dx%d", ds.Features.Rows, ds.Features.Cols)
	}
	if len(ds.Labels) != ds.Spec.ScaledNodes {
		t.Fatal("labels length mismatch")
	}
	total := len(ds.TrainIdx) + len(ds.ValIdx) + len(ds.TestIdx)
	if total != ds.Spec.ScaledNodes {
		t.Fatalf("splits cover %d of %d nodes", total, ds.Spec.ScaledNodes)
	}
	// Splits must be disjoint.
	seen := make(map[graph.NodeID]bool, total)
	for _, set := range [][]graph.NodeID{ds.TrainIdx, ds.ValIdx, ds.TestIdx} {
		for _, v := range set {
			if seen[v] {
				t.Fatalf("node %d appears in two splits", v)
			}
			seen[v] = true
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := datasets.Build("ogbn-products", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := datasets.Build("ogbn-products", 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed gave different graphs")
	}
	if a.Features.MaxAbsDiff(b.Features) != 0 {
		t.Fatal("same seed gave different features")
	}
	for i := range a.TrainIdx {
		if a.TrainIdx[i] != b.TrainIdx[i] {
			t.Fatal("same seed gave different splits")
		}
	}
}

func TestFeaturesAreClassSeparable(t *testing.T) {
	ds, err := datasets.Build("flickr", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest-centroid classification on raw features should beat chance
	// by a wide margin — this is what makes convergence curves meaningful.
	classes := ds.NumClasses
	dim := ds.Features.Cols
	centroids := make([][]float64, classes)
	counts := make([]int, classes)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	for v, c := range ds.Labels {
		row := ds.Features.Row(v)
		for j, x := range row {
			centroids[c][j] += float64(x)
		}
		counts[c]++
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for v, lbl := range ds.Labels {
		row := ds.Features.Row(v)
		best, bestD := -1, 0.0
		for c := range centroids {
			var d float64
			for j, x := range row {
				diff := float64(x) - centroids[c][j]
				d += diff * diff
			}
			if best < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		if int32(best) == lbl {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Labels))
	chance := 1.0 / float64(classes)
	if acc < 3*chance {
		t.Fatalf("nearest-centroid accuracy %.3f not separable (chance %.3f)", acc, chance)
	}
}

func TestTopDegreeDeterministic(t *testing.T) {
	ds, err := datasets.Build("flickr", 7)
	if err != nil {
		t.Fatal(err)
	}
	a := graph.TopDegree(ds.Graph, 64)
	b := graph.TopDegree(ds.Graph, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("TopDegree is not deterministic")
	}
	for i := 1; i < len(a); i++ {
		di, dj := ds.Graph.Degree(a[i-1]), ds.Graph.Degree(a[i])
		if di < dj || (di == dj && a[i-1] >= a[i]) {
			t.Fatalf("rank %d out of order: node %d (deg %d) before node %d (deg %d)", i, a[i-1], di, a[i], dj)
		}
	}
}
