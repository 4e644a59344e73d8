package datasets

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"argo/internal/graph"
)

// The acceptance scenario: the tiny profile written at -scale 100 opens
// via the lazy path with work proportional to the sections touched —
// spec and stats are served from the store prefix, and topology-only
// loads never materialise the (much larger) feature section.
func TestScaledProfileOpensLazily(t *testing.T) {
	p, err := Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Spec.Scale(100)
	if spec.ScaledNodes != p.Spec.ScaledNodes*100 || spec.ScaledEdges != p.Spec.ScaledEdges*100 {
		t.Fatalf("Scale(100): %d nodes, %d edges", spec.ScaledNodes, spec.ScaledEdges)
	}
	if spec.Name != "tiny@x100" {
		t.Fatalf("scaled name %q", spec.Name)
	}
	ds, err := graph.Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny100.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}

	// The lazy handle resolves metadata without touching topology or
	// features.
	lz, err := graph.OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if gotSpec := lz.Spec(); !reflect.DeepEqual(gotSpec, spec) {
		t.Fatalf("Spec = %+v", gotSpec)
	}
	if st := lz.Stats(); st.NumNodes != int64(ds.Graph.NumNodes) || st.FeatRows != ds.Features.Rows {
		t.Fatalf("stats %+v", st)
	}

	// Topology-only load — feature bytes stay untouched (the byte-level
	// proof lives in internal/graph's recording-source tests; here we
	// check the path-level API composes).
	g, err := lz.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != ds.Graph.NumNodes {
		t.Fatalf("lazy topology %d nodes, want %d", g.NumNodes, ds.Graph.NumNodes)
	}

	// It materialises identically to a build.
	back, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("scaled store did not round-trip through the lazy path")
	}
}

func TestResolveLazyRegistryName(t *testing.T) {
	lz, err := ResolveLazy("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if lz.AccessMode() != "memory" {
		t.Fatalf("registry build access mode %s", lz.AccessMode())
	}
	want, err := Build("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ResolveLazy(name) differs from Build(name)")
	}
}

// A small store is the trust-nothing case: ResolveLazy decodes and
// verifies it at open, so a store whose feature section is corrupt is
// refused there rather than on first use.
func TestResolveLazyEagerCatchesDeepCorruption(t *testing.T) {
	ds, err := Build("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Feature data sits in the store's back half; flip a bit there
	// without disturbing the metadata prefix.
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveLazy(path, 0); err == nil {
		t.Fatal("eager resolution accepted a corrupt store")
	}
}
