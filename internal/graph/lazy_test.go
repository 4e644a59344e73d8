package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"argo/internal/platform"
)

// recordingSource wraps a sectionSource and records every byte range
// read through it, so tests can prove which parts of a store a given
// access path touches.
type recordingSource struct {
	inner sectionSource
	reads [][2]uint64 // {offset, length}
}

func (r *recordingSource) view(off, n uint64) ([]byte, error) {
	r.reads = append(r.reads, [2]uint64{off, n})
	return r.inner.view(off, n)
}

func (r *recordingSource) size() int64 { return r.inner.size() }

// touched reports whether any recorded read intersects [off, off+n).
func (r *recordingSource) touched(off, n uint64) bool {
	for _, rd := range r.reads {
		if rd[0] < off+n && off < rd[0]+rd[1] {
			return true
		}
	}
	return false
}

func sectionExtent(t *testing.T, lz *LazyDataset, id uint32) (uint64, uint64) {
	t.Helper()
	e, ok := findSection(lz.sections, id)
	if !ok {
		t.Fatalf("store has no section %s", SectionName(id))
	}
	return e.Offset, e.Length
}

// The acceptance property of the sectioned format: opening a store and
// reading its spec and stats touches no CSR or feature bytes;
// materialising topology touches CSR but still no feature bytes.
// Features are read only when asked for.
func TestLazyOpenReadsOnlyMetadataSections(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rec := &recordingSource{inner: mmapSource{buf.Bytes()}}
	lz, err := openLazySource(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spec and stats are already decoded; consuming them reads nothing.
	if lz.Spec().Name != ds.Spec.Name {
		t.Fatalf("spec name %q", lz.Spec().Name)
	}
	if lz.Stats().NumNodes != int64(ds.Graph.NumNodes) {
		t.Fatalf("stats nodes %d", lz.Stats().NumNodes)
	}
	csrOff, csrLen := sectionExtent(t, lz, secCSR)
	featOff, featLen := sectionExtent(t, lz, secFeatures)
	labOff, labLen := sectionExtent(t, lz, secLabels)
	if rec.touched(csrOff, csrLen) {
		t.Fatal("opening the store read CSR bytes")
	}
	if rec.touched(featOff, featLen) {
		t.Fatal("opening the store read feature bytes")
	}
	if rec.touched(labOff, labLen) {
		t.Fatal("opening the store read label bytes")
	}

	// Topology-only consumers (samplers, partitioners, inspect) pay for
	// the CSR section and nothing else.
	g, err := lz.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Graph, g) {
		t.Fatal("lazy topology differs from original")
	}
	if !rec.touched(csrOff, csrLen) {
		t.Fatal("Topology did not read the CSR section")
	}
	if rec.touched(featOff, featLen) {
		t.Fatal("Topology read feature bytes")
	}

	// Features materialise on demand — and only then.
	m, err := lz.Features()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Features, m) {
		t.Fatal("lazy features differ from original")
	}
	if !rec.touched(featOff, featLen) {
		t.Fatal("Features did not read the features section")
	}

	// Full materialisation through the same handle equals the original.
	full, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, full) {
		t.Fatal("lazy-assembled dataset differs from original")
	}
}

// File-level check of the same property: OpenLazy + Topology on a v2
// *dataset* store extracts topology without materialising features, and the
// result matches the eager load.
func TestLoadCSRFromDatasetStore(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "ds.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := topologyAt(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Graph, g) {
		t.Fatal("topology of a dataset store differs from the original")
	}
}

// A v2 store with a corrupt features section still serves topology —
// proof that a topology read never touches feature bytes even on-disk.
func TestLoadCSRIgnoresCorruptFeatureSection(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	lzProbe, err := openLazySource(mmapSource{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	featOff, featLen := sectionExtent(t, lzProbe, secFeatures)
	mut := append([]byte(nil), b...)
	mut[featOff+featLen/2] ^= 0x08
	path := filepath.Join(t.TempDir(), "corrupt-feat.argograph")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := topologyAt(path)
	if err != nil {
		t.Fatalf("topology read failed on a store whose only damage is in features: %v", err)
	}
	if !reflect.DeepEqual(ds.Graph, g) {
		t.Fatal("topology mismatch")
	}
	// The eager load, which does decode features, must reject the store.
	if _, err := LoadDataset(path); err == nil {
		t.Fatal("LoadDataset accepted a corrupt features section")
	}
}

// OpenLazy on linux serves sections from an mmap; everywhere it must
// report a coherent access mode and produce identical data.
func TestOpenLazyFileAccessMode(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "mapped.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if platform.MmapSupported {
		if lz.AccessMode() != "mmap" {
			t.Fatalf("expected mmap access on this platform, got %s", lz.AccessMode())
		}
	} else if lz.AccessMode() != "pread" {
		t.Fatalf("expected pread fallback, got %s", lz.AccessMode())
	}
	d, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, d) {
		t.Fatal("mapped dataset differs from original")
	}
}

func TestLazyFromDataset(t *testing.T) {
	ds := storeTestDataset(t)
	lz := LazyFromDataset(ds)
	defer lz.Close()
	if lz.AccessMode() != "memory" {
		t.Fatalf("access mode %s", lz.AccessMode())
	}
	d, err := lz.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if d != ds {
		t.Fatal("LazyFromDataset did not return the wrapped dataset")
	}
	train, _, _, err := lz.Splits()
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != len(ds.TrainIdx) {
		t.Fatalf("splits %d train ids, want %d", len(train), len(ds.TrainIdx))
	}
}

// Concurrent materialisation through one handle must be race-free (the
// race CI job runs this with -race).
func TestLazyConcurrentAccess(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "conc.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	done := make(chan error, 4)
	go func() { _, err := lz.Topology(); done <- err }()
	go func() { _, err := lz.Features(); done <- err }()
	go func() { _, err := lz.Labels(); done <- err }()
	go func() { _, _, _, err := lz.Splits(); done <- err }()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lz.Dataset(); err != nil {
		t.Fatal(err)
	}
}

// FeatureRow must return the same bits as the materialised matrix, on
// every access mode: section-backed (pre-materialisation), cached
// matrix (post-Features), and eager wrap.
func TestFeatureRowMatchesFullDecode(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "rows.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if lz.FeatureDim() != ds.Features.Cols || lz.Stats().FeatRows != ds.Features.Rows {
		t.Fatalf("feature shape %dx%d, want %dx%d",
			lz.Stats().FeatRows, lz.FeatureDim(), ds.Features.Rows, ds.Features.Cols)
	}
	buf := make([]float32, 0, lz.FeatureDim())
	for _, i := range []int{0, 1, ds.Features.Rows / 2, ds.Features.Rows - 1} {
		row, err := lz.FeatureRow(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, ds.Features.Row(i)) {
			t.Fatalf("section-backed row %d differs", i)
		}
	}
	if _, err := lz.FeatureRow(-1, nil); err == nil {
		t.Fatal("row -1 accepted")
	}
	if _, err := lz.FeatureRow(ds.Features.Rows, nil); err == nil {
		t.Fatal("row past the end accepted")
	}
	// After full materialisation the accessor serves from the cached
	// matrix; values are unchanged.
	if _, err := lz.Features(); err != nil {
		t.Fatal(err)
	}
	row, err := lz.FeatureRow(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, ds.Features.Row(2)) {
		t.Fatal("matrix-backed row differs")
	}
	// Eager wrap (registry-built workloads) flows through the same API.
	wrapped := LazyFromDataset(ds)
	row, err = wrapped.FeatureRow(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, ds.Features.Row(3)) {
		t.Fatal("eager-wrapped row differs")
	}
}

// The serving-path acceptance property: gathering the features of a
// k-hop neighborhood row by row touches only those rows' bytes — the
// full feature matrix is never materialised. This is what lets an
// inference server answer queries against a store much larger than RAM.
func TestFeatureRowKHopGatherNeverMaterialisesMatrix(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rec := &recordingSource{inner: mmapSource{buf.Bytes()}}
	lz, err := openLazySource(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-hop frontier from a handful of targets, exactly what the
	// inference gather walks.
	g, err := lz.Topology()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	frontier := []NodeID{0, 7, 13}
	for _, v := range frontier {
		seen[v] = true
	}
	for hop := 0; hop < 2; hop++ {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	if len(seen) == ds.Graph.NumNodes {
		t.Fatalf("degenerate test: 2-hop frontier covers all %d nodes", len(seen))
	}
	readsBefore := len(rec.reads)
	scratch := make([]float32, lz.FeatureDim())
	for v := range seen {
		row, err := lz.FeatureRow(int(v), scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, ds.Features.Row(int(v))) {
			t.Fatalf("row %d differs", v)
		}
	}
	featOff, featLen := sectionExtent(t, lz, secFeatures)
	rowBytes := uint64(lz.FeatureDim()) * 4
	var featureBytes uint64
	for _, rd := range rec.reads[readsBefore:] {
		if rd[0] < featOff || rd[0]+rd[1] > featOff+featLen {
			t.Fatalf("gather read [%d,+%d) outside the features section", rd[0], rd[1])
		}
		featureBytes += rd[1]
	}
	// One 16-byte header check plus one row read per gathered node, with
	// scratch reuse: nothing proportional to the full matrix.
	want := 16 + rowBytes*uint64(len(seen))
	if featureBytes != want {
		t.Fatalf("gather read %d feature bytes, want exactly %d (%d rows)", featureBytes, want, len(seen))
	}
	if featureBytes >= featLen {
		t.Fatalf("gather read %d of %d feature-section bytes — matrix was materialised", featureBytes, featLen)
	}
}

// Every accessor that needs store bytes fails with an error, not a
// panic, once the store is closed.
func TestClosedStoreAccessorsFail(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "closed.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	for name, access := range map[string]func(*LazyDataset) error{
		"Topology":   func(lz *LazyDataset) error { _, err := lz.Topology(); return err },
		"Features":   func(lz *LazyDataset) error { _, err := lz.Features(); return err },
		"Labels":     func(lz *LazyDataset) error { _, err := lz.Labels(); return err },
		"Splits":     func(lz *LazyDataset) error { _, _, _, err := lz.Splits(); return err },
		"FeatureRow": func(lz *LazyDataset) error { _, err := lz.FeatureRow(0, nil); return err },
		"Dataset":    func(lz *LazyDataset) error { _, err := lz.Dataset(); return err },
	} {
		lz, err := OpenLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := lz.Close(); err != nil {
			t.Fatal(err)
		}
		if err := access(lz); err == nil || !strings.Contains(err.Error(), "store is closed") {
			t.Errorf("%s after Close: %v, want a store-is-closed error", name, err)
		}
		if err := lz.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

// FeatureRow racing Close (run under -race): every read either returns
// the row or fails with the store-is-closed error, and none touches a
// store that is already unmapped.
func TestFeatureRowRacesClose(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "race.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < ds.Features.Rows; i += 4 {
				row, err := lz.FeatureRow(i, nil)
				if err != nil {
					if !strings.Contains(err.Error(), "store is closed") {
						t.Error(err)
					}
					return
				}
				if !reflect.DeepEqual(row, ds.Features.Row(i)) {
					t.Errorf("row %d differs", i)
					return
				}
			}
		}(g)
	}
	if err := lz.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
