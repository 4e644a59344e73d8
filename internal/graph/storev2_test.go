package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// v2TestBytes returns a valid v2 dataset store plus its parsed section
// table, for tests that craft corruptions.
func v2TestBytes(t testing.TB) ([]byte, []sectionEntry) {
	t.Helper()
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b, sectionTableOf(t, b)
}

// sectionTableOf parses the section table of the valid store b.
func sectionTableOf(t testing.TB, b []byte) []sectionEntry {
	t.Helper()
	h, err := parseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := parseSectionTable(h, b[storeHeaderLen:], int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// rewriteTable mutates one table entry and fixes the table CRC so the
// corruption under test is the *extents*, not the checksum.
func rewriteTable(b []byte, idx int, mutate func(entry []byte)) []byte {
	out := append([]byte(nil), b...)
	count := int(binary.LittleEndian.Uint32(out[16:]))
	mutate(out[storeHeaderLen+idx*sectionEntryLen:])
	table := out[storeHeaderLen : storeHeaderLen+count*sectionEntryLen]
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(table, storeCRC))
	return out
}

// Overlapping section extents must surface as ErrSectionOverlap — a
// distinct error, raised before any section payload is decoded — not as
// a generic decode failure.
func TestSectionTableOverlapDistinctError(t *testing.T) {
	b, entries := v2TestBytes(t)
	// Pull the features section 8 bytes into the csr section.
	var featIdx int
	for i, e := range entries {
		if e.ID == secFeatures {
			featIdx = i
		}
	}
	mut := rewriteTable(b, featIdx, func(e []byte) {
		off := binary.LittleEndian.Uint64(e[8:])
		binary.LittleEndian.PutUint64(e[8:], off-8)
		binary.LittleEndian.PutUint64(e[16:], binary.LittleEndian.Uint64(e[16:])+8)
	})
	_, err := ReadDataset(bytes.NewReader(mut))
	if !errors.Is(err, ErrSectionOverlap) {
		t.Fatalf("overlapping extents: got %v, want ErrSectionOverlap", err)
	}
	// The same distinct error must come out of the file-based verify path.
	path := filepath.Join(t.TempDir(), "overlap.argograph")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyStore(path); !errors.Is(err, ErrSectionOverlap) {
		t.Fatalf("VerifyStore on overlap: got %v, want ErrSectionOverlap", err)
	}
}

func TestSectionTableOutOfBoundsDistinctError(t *testing.T) {
	b, entries := v2TestBytes(t)
	last := len(entries) - 1
	mut := rewriteTable(b, last, func(e []byte) {
		binary.LittleEndian.PutUint64(e[16:], binary.LittleEndian.Uint64(e[16:])+1<<32)
	})
	_, err := ReadDataset(bytes.NewReader(mut))
	if !errors.Is(err, ErrSectionBounds) {
		t.Fatalf("out-of-bounds extent: got %v, want ErrSectionBounds", err)
	}
}

func TestSectionTableGapRejected(t *testing.T) {
	b, entries := v2TestBytes(t)
	// Shrinking a middle section's length leaves a gap before the next.
	var csrIdx int
	for i, e := range entries {
		if e.ID == secCSR {
			csrIdx = i
		}
	}
	mut := rewriteTable(b, csrIdx, func(e []byte) {
		binary.LittleEndian.PutUint64(e[16:], binary.LittleEndian.Uint64(e[16:])-8)
	})
	if _, err := ReadDataset(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped sections accepted: %v", err)
	}
}

func TestSectionTableChecksumGuardsExtents(t *testing.T) {
	b, _ := v2TestBytes(t)
	// Mutating the table without fixing its CRC is caught by the header CRC.
	mut := append([]byte(nil), b...)
	mut[storeHeaderLen+8] ^= 1
	if _, err := ReadDataset(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered table accepted: %v", err)
	}
}

// A corrupted section payload must fail exactly when that section is
// materialised — and only that section.
func TestV2SectionCorruptionIsolated(t *testing.T) {
	b, entries := v2TestBytes(t)
	var feat sectionEntry
	for _, e := range entries {
		if e.ID == secFeatures {
			feat = e
		}
	}
	mut := append([]byte(nil), b...)
	mut[feat.Offset+feat.Length/2] ^= 0x10
	lz, err := openLazySource(mmapSource{mut}, nil)
	if err != nil {
		t.Fatalf("open with corrupt features section: %v (spec/stats are intact)", err)
	}
	if _, err := lz.Topology(); err != nil {
		t.Fatalf("topology with corrupt features section: %v", err)
	}
	if _, err := lz.Features(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt features section materialised: %v", err)
	}
}

// A version-1 store is outside input: every entry point must refuse it
// from the header alone with ErrUnsupportedVersion naming the version
// found — no partial decode, no panic.
func TestGoldenV1FixtureRejectedEverywhere(t *testing.T) {
	raw, err := os.ReadFile(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	entryPoints := map[string]func() error{
		"ReadDataset": func() error { _, err := ReadDataset(bytes.NewReader(raw)); return err },
		"OpenLazy":    func() error { _, err := OpenLazy(goldenV1); return err },
		"LoadDataset": func() error { _, err := LoadDataset(goldenV1); return err },
		"VerifyStore": func() error { _, err := VerifyStore(goldenV1); return err },
		"ConvertStore": func() error {
			_, _, err := ConvertStore(goldenV1, filepath.Join(t.TempDir(), "out.argograph"), DtypeF16)
			return err
		},
		"OpenShardSet": func() error { _, err := OpenShardSet(goldenV1); return err },
	}
	for name, open := range entryPoints {
		err := open()
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("%s on a v1 store: %v, want ErrUnsupportedVersion", name, err)
		} else if !strings.Contains(err.Error(), "version 1 ") {
			t.Errorf("%s: error does not name the version found: %v", name, err)
		}
	}
}

// A stats section that disagrees with the real topology is corruption,
// and every entry point that decodes the CSR — Topology, Dataset, and
// therefore VerifyStore — must catch it, not just the topology-only
// path.
func TestLyingStatsSectionRejectedEverywhere(t *testing.T) {
	b, entries := v2TestBytes(t)
	var stats sectionEntry
	for _, e := range entries {
		if e.ID == secStats {
			stats = e
		}
	}
	sec := b[stats.Offset : stats.Offset+stats.Length]
	// 400 → 401 keeps the JSON the same length, so only CRCs need fixing.
	fixed := bytes.Replace(sec, []byte(`"num_nodes":400`), []byte(`"num_nodes":401`), 1)
	if bytes.Equal(sec, fixed) {
		t.Fatal("test setup: num_nodes field not found in stats JSON")
	}
	mut := append([]byte(nil), b...)
	copy(mut[stats.Offset:], fixed)
	var statsIdx int
	for i, e := range entries {
		if e.ID == secStats {
			statsIdx = i
		}
	}
	mut = rewriteTable(mut, statsIdx, func(e []byte) {
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(fixed, storeCRC))
	})
	if _, err := ReadDataset(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "disagrees with stats") {
		t.Fatalf("ReadDataset accepted lying stats: %v", err)
	}
	path := filepath.Join(t.TempDir(), "lying.argograph")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyStore(path); err == nil || !strings.Contains(err.Error(), "disagrees with stats") {
		t.Fatalf("VerifyStore accepted lying stats: %v", err)
	}
	if _, err := topologyAt(path); err == nil || !strings.Contains(err.Error(), "disagrees with stats") {
		t.Fatalf("a topology read accepted lying stats: %v", err)
	}
}

// Future section ids are accepted by the table parser (the layout is
// extensible without a version bump), but they are still covered by
// verification — and convert refuses to rewrite what it would have to
// drop.
func TestUnknownSectionVerifiedAndNotDropped(t *testing.T) {
	ds := storeTestDataset(t)
	specJSON, _ := json.Marshal(ds.Spec)
	statsJSON, _ := json.Marshal(ComputeStats(ds))
	var csr enc
	encodeCSR(&csr, ds.Graph)
	var feats enc
	feats.u64(uint64(ds.Features.Rows))
	feats.u64(uint64(ds.Features.Cols))
	feats.f32s(ds.Features.Data)
	var labels enc
	labels.u64(uint64(len(ds.Labels)))
	labels.i32s(ds.Labels)
	var splits enc
	for _, split := range [][]NodeID{ds.TrainIdx, ds.ValIdx, ds.TestIdx} {
		splits.u64(uint64(len(split)))
		splits.i32s(split)
	}
	// Id 63 is unknown to this version of the code (7 and 8 are the
	// shard sections now); the promise under test is that a store
	// carrying a section id from the future still loads and verifies.
	future := []byte("future section payload")
	b := encodeSections([]section{
		{secSpec, specJSON},
		{secStats, statsJSON},
		{secCSR, csr.buf},
		{secFeatures, feats.buf},
		{secLabels, labels.buf},
		{secSplits, splits.buf},
		{63, future},
	})
	path := filepath.Join(t.TempDir(), "future.argograph")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The store loads (unknown sections are simply not materialised)…
	if _, err := LoadDataset(path); err != nil {
		t.Fatalf("store with extra section failed to load: %v", err)
	}
	// …verifies clean…
	if _, err := VerifyStore(path); err != nil {
		t.Fatalf("store with extra section failed verify: %v", err)
	}
	// …and verify catches corruption inside the unknown section, which
	// no decode path would ever touch.
	mut := append([]byte(nil), b...)
	mut[len(mut)-3] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyStore(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt unknown section passed verify: %v", err)
	}
	// A rewrite must refuse rather than silently drop the section.
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvertStore(path, filepath.Join(t.TempDir(), "out.argograph"), DtypeF16); err == nil || !strings.Contains(err.Error(), "cannot re-encode") {
		t.Fatalf("convert silently handled an unknown section: %v", err)
	}
}

// The stats section must agree with the materialised dataset — it is
// precomputed at write time and trusted by metadata-only consumers.
func TestStatsSectionMatchesDataset(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "stats.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	st := lz.Stats()
	if !reflect.DeepEqual(st, ComputeStats(ds)) {
		t.Fatalf("stored stats %+v != computed %+v", st, ComputeStats(ds))
	}
	if st.NumNodes != int64(ds.Graph.NumNodes) || st.NumArcs != ds.Graph.NumEdges() ||
		st.NumClasses != ds.NumClasses || st.TrainCount != len(ds.TrainIdx) {
		t.Fatalf("stats disagree with dataset: %+v", st)
	}
	var total int64
	for _, c := range st.DegreeHist {
		total += c
	}
	if total != int64(ds.Graph.NumNodes) {
		t.Fatalf("degree histogram sums to %d, want %d", total, ds.Graph.NumNodes)
	}
}

// FuzzReadSectionTable drives the v2 container parser with arbitrary
// bytes: crafted section tables (overlaps, wild offsets, huge counts)
// must produce errors, never panics or giant allocations, and anything
// accepted must satisfy every invariant.
func FuzzReadSectionTable(f *testing.F) {
	valid, entries := v2TestBytes(f)
	f.Add(valid)
	f.Add(valid[:storeHeaderLen])
	f.Add(valid[:storeHeaderLen+3*sectionEntryLen])
	f.Add(valid[:len(valid)-7])
	// Seed an overlap and an out-of-bounds extent so the fuzzer starts
	// near the interesting rejection paths.
	var featIdx int
	for i, e := range entries {
		if e.ID == secFeatures {
			featIdx = i
		}
	}
	f.Add(rewriteTable(valid, featIdx, func(e []byte) {
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])-16)
	}))
	f.Add(rewriteTable(valid, 0, func(e []byte) {
		binary.LittleEndian.PutUint64(e[16:], 1<<50)
	}))
	// A header claiming the maximum section count over an empty body.
	hugeCount := append([]byte(nil), valid[:storeHeaderLen]...)
	binary.LittleEndian.PutUint32(hugeCount[16:], 1<<30)
	f.Add(hugeCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		lz, err := openLazySource(mmapSource{data}, nil)
		if err != nil {
			return
		}
		// Accepted: every materialisation must either succeed with a
		// valid structure or fail cleanly.
		if g, err := lz.Topology(); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted topology fails validation: %v", err)
			}
		}
		if d, err := lz.Dataset(); err == nil {
			if err := d.Validate(); err != nil {
				t.Fatalf("accepted dataset fails validation: %v", err)
			}
		}
	})
}
