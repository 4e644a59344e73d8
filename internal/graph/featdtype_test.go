package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// f16TestDataset is storeTestDataset rounded to fp16 storage — the
// rounding happens exactly once here, so every value is fp16-exact and
// all later encode/decode hops must be lossless.
func f16TestDataset(t testing.TB) *Dataset {
	t.Helper()
	ds := storeTestDataset(t)
	if err := ds.ConvertFeatures(DtypeF16); err != nil {
		t.Fatal(err)
	}
	return ds
}

// An fp16 dataset round-trips bit-exactly through the store: the single
// rounding at ConvertFeatures is the only lossy step anywhere.
func TestF16StoreRoundTrip(t *testing.T) {
	ds := f16TestDataset(t)
	if ds.FeatDtype != DtypeF16 {
		t.Fatalf("dtype %v after conversion", ds.FeatDtype)
	}
	path := filepath.Join(t.TempDir(), "f16.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("fp16 dataset did not round-trip bit-exactly")
	}
	// Row-granular reads decode the same bits.
	lz, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	if lz.FeatDtype() != DtypeF16 {
		t.Fatalf("lazy dtype %v", lz.FeatDtype())
	}
	for _, i := range []int{0, 1, ds.Features.Rows / 2, ds.Features.Rows - 1} {
		row, err := lz.FeatureRow(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, ds.Features.Row(i)) {
			t.Fatalf("fp16 row %d differs", i)
		}
	}
}

// The fp16 container framing, pinned like TestStoreGoldenHeader: still
// six sections, with features16 replacing features (and written last,
// so ascending section ids are preserved), and the features payload
// exactly half the fp32 store's.
func TestF16StoreGoldenSections(t *testing.T) {
	f32 := storeTestDataset(t)
	f16 := f16TestDataset(t)
	var b32, b16 bytes.Buffer
	if err := f32.Write(&b32); err != nil {
		t.Fatal(err)
	}
	if err := f16.Write(&b16); err != nil {
		t.Fatal(err)
	}
	b := b16.Bytes()
	if n := binary.LittleEndian.Uint32(b[16:]); n != 6 {
		t.Fatalf("section count %d, want 6", n)
	}
	lz, err := openLazySource(mmapSource{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range lz.Sections() {
		names = append(names, s.Name)
	}
	want := []string{"spec", "stats", "csr", "labels", "splits", "features16"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
	if _, ok := findSection(lz.sections, secFeatures); ok {
		t.Fatal("fp16 store still carries an fp32 features section")
	}
	_, len16 := sectionExtent(t, lz, secFeaturesF16)
	rows, cols := f16.Features.Rows, f16.Features.Cols
	if want := uint64(16 + rows*cols*2); len16 != want {
		t.Fatalf("features16 section %d bytes, want %d", len16, want)
	}
	if b16.Len() >= b32.Len() {
		t.Fatalf("fp16 store %d bytes, fp32 %d — no size win", b16.Len(), b32.Len())
	}
	// Deterministic writes, like the fp32 golden test pins.
	var again bytes.Buffer
	if err := f16.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again.Bytes()) {
		t.Fatal("two writes of the same fp16 dataset differ")
	}
}

// ConvertFeatures is a single RTNE rounding: every stored value is the
// nearest fp16, and re-converting is the identity.
func TestConvertFeaturesRoundsOnceAndIsIdempotent(t *testing.T) {
	ds := storeTestDataset(t)
	ref := ds.Features.Clone()
	if err := ds.ConvertFeatures(DtypeF16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Features.Rows; i++ {
		got, orig := ds.Features.Row(i), ref.Row(i)
		for j := range got {
			if want := half.Round(orig[j]); math.Float32bits(got[j]) != math.Float32bits(want) {
				t.Fatalf("row %d col %d: %v, want round(%v)=%v", i, j, got[j], orig[j], want)
			}
		}
	}
	snap := ds.Features.Clone()
	if err := ds.ConvertFeatures(DtypeF16); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Features, snap) {
		t.Fatal("second fp16 conversion changed already-exact values")
	}
	// Back to fp32 is a pure relabel: the widened values are unchanged.
	if err := ds.ConvertFeatures(DtypeF32); err != nil {
		t.Fatal(err)
	}
	if ds.FeatDtype != DtypeF32 || !reflect.DeepEqual(ds.Features, snap) {
		t.Fatal("fp32 relabel changed feature values")
	}
}

func TestConvertFeaturesRejectsUnrepresentable(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 65520, -1e9} {
		ds := storeTestDataset(t)
		ds.Features.Row(3)[1] = bad
		if err := ds.ConvertFeatures(DtypeF16); err == nil {
			t.Fatalf("value %v accepted by fp16 conversion", bad)
		}
	}
}

// ConvertStore on disk: fp32→fp16 matches an in-memory conversion
// byte for byte, converting an already-fp16 store is byte-idempotent,
// and fp16→fp32 widens to exactly the rounded values.
func TestConvertStoreIdempotent(t *testing.T) {
	dir := t.TempDir()
	src32 := filepath.Join(dir, "a32.argograph")
	if err := storeTestDataset(t).Save(src32); err != nil {
		t.Fatal(err)
	}
	dst16 := filepath.Join(dir, "a16.argograph")
	from, identical, err := ConvertStore(src32, dst16, DtypeF16)
	if err != nil {
		t.Fatal(err)
	}
	if from != DtypeF32 || identical {
		t.Fatalf("fp32→fp16: from=%v identical=%v", from, identical)
	}
	wantPath := filepath.Join(dir, "want16.argograph")
	if err := f16TestDataset(t).Save(wantPath); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst16)
	want, _ := os.ReadFile(wantPath)
	if !bytes.Equal(got, want) {
		t.Fatal("on-disk conversion differs from in-memory ConvertFeatures+Save")
	}
	// fp16→fp16 rewrites the same bytes (and says so).
	again := filepath.Join(dir, "again16.argograph")
	if from, identical, err = ConvertStore(dst16, again, DtypeF16); err != nil {
		t.Fatal(err)
	}
	if from != DtypeF16 || !identical {
		t.Fatalf("fp16→fp16: from=%v identical=%v", from, identical)
	}
	rewritten, _ := os.ReadFile(again)
	if !bytes.Equal(rewritten, got) {
		t.Fatal("fp16→fp16 conversion is not byte-idempotent")
	}
	// fp16→fp32 widens losslessly.
	back32 := filepath.Join(dir, "back32.argograph")
	if _, _, err := ConvertStore(dst16, back32, DtypeF32); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(back32)
	if err != nil {
		t.Fatal(err)
	}
	f16 := f16TestDataset(t)
	if back.FeatDtype != DtypeF32 || !reflect.DeepEqual(back.Features, f16.Features) {
		t.Fatal("fp16→fp32 widening does not match the rounded values")
	}
}

// Sharding an fp16 dataset keeps every shard store fp16 and every owned
// row bit-exact — the invariant the wire format's losslessness rests on.
func TestF16ShardRoundTripBitExact(t *testing.T) {
	ds := f16TestDataset(t)
	dir := t.TempDir()
	man, paths, err := WriteShardSet(ds, dir, "f16", ShardOptions{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if man.FeatDtype != "fp16" {
		t.Fatalf("manifest dtype %q, want fp16", man.FeatDtype)
	}
	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < ss.K(); i++ {
		lz, err := ss.shard(i)
		if err != nil {
			t.Fatal(err)
		}
		if lz.FeatDtype() != DtypeF16 {
			t.Fatalf("shard %d dtype %v", i, lz.FeatDtype())
		}
		sm, err := ss.ShardMap(i)
		if err != nil {
			t.Fatal(err)
		}
		for local := 0; local < lz.Stats().FeatRows; local++ {
			global, err := sm.GlobalID(NodeID(local))
			if err != nil {
				t.Fatal(err)
			}
			row, err := lz.FeatureRow(local, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row, ds.Features.Row(int(global))) {
				t.Fatalf("shard %d local row %d (global %d) differs", i, local, global)
			}
		}
	}
}

// The fp16 twin of TestFeatureRowKHopGatherNeverMaterialisesMatrix:
// row-granular reads on an fp16 store touch exactly the gathered rows'
// 2-byte-per-value extents — half the fp32 traffic, and never the
// whole section.
func TestF16FeatureRowNeverMaterialisesMatrix(t *testing.T) {
	ds := f16TestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rec := &recordingSource{inner: mmapSource{buf.Bytes()}}
	lz, err := openLazySource(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 7, 13, 200, ds.Features.Rows - 1}
	readsBefore := len(rec.reads)
	scratch := make([]float32, lz.FeatureDim())
	for _, i := range rows {
		row, err := lz.FeatureRow(i, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, ds.Features.Row(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
	featOff, featLen := sectionExtent(t, lz, secFeaturesF16)
	var featureBytes uint64
	for _, rd := range rec.reads[readsBefore:] {
		if rd[0] < featOff || rd[0]+rd[1] > featOff+featLen {
			t.Fatalf("read [%d,+%d) outside the features16 section", rd[0], rd[1])
		}
		featureBytes += rd[1]
	}
	want := 16 + uint64(lz.FeatureDim())*2*uint64(len(rows))
	if featureBytes != want {
		t.Fatalf("read %d feature bytes, want exactly %d (%d fp16 rows + header)", featureBytes, want, len(rows))
	}
	if featureBytes >= featLen {
		t.Fatal("fp16 row reads materialised the features section")
	}
}

// Validate rejects fp16 sections whose values are corrupt: non-finite
// bits, and (through VerifyStore) a payload whose row extent lies.
func TestF16ValidateRejectsNonFinite(t *testing.T) {
	ds := f16TestDataset(t)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	ds.Features.Row(5)[2] = float32(math.Inf(1))
	if err := ds.Validate(); err == nil {
		t.Fatal("fp16 dataset with +Inf passed validation")
	}
	ds.Features.Row(5)[2] = 1.0 + 1e-4 // not fp16-exact
	if err := ds.Validate(); err == nil {
		t.Fatal("fp16 dataset with a non-fp16-exact value passed validation")
	}
}

// A row read refuses the non-finite fp16 bits Features refuses: a store
// whose features16 payload was patched to hold +Inf and NaN errors on
// exactly those rows, and every other row still matches the clean
// store's materialised matrix.
func TestFeatureRowRefusesNonFiniteF16(t *testing.T) {
	ds := f16TestDataset(t)
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.argograph")
	if err := ds.Save(clean); err != nil {
		t.Fatal(err)
	}
	lz, err := OpenLazy(clean)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	want, err := lz.Features()
	if err != nil {
		t.Fatal(err)
	}
	off, _ := sectionExtent(t, lz, secFeaturesF16)
	b, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[int]uint16{3: 0x7c00, 11: 0x7e00} // +Inf, quiet NaN
	for row, bits := range bad {
		binary.LittleEndian.PutUint16(b[off+16+uint64(row*want.Cols+2)*2:], bits)
	}
	patched := filepath.Join(dir, "patched.argograph")
	if err := os.WriteFile(patched, b, 0o644); err != nil {
		t.Fatal(err)
	}
	pz, err := OpenLazy(patched)
	if err != nil {
		t.Fatal(err)
	}
	defer pz.Close()
	for i := 0; i < want.Rows; i++ {
		row, err := pz.FeatureRow(i, nil)
		if _, isBad := bad[i]; isBad {
			if err == nil {
				t.Fatalf("row %d with non-finite fp16 bits read as %v", i, row)
			}
			continue
		}
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !reflect.DeepEqual(row, want.Row(i)) {
			t.Fatalf("row %d differs from the clean store", i)
		}
	}
}

// The rounding report on a hand-built matrix: fp16 has 10 fraction
// bits, so 1+2⁻¹¹ sits exactly halfway between 1 and 1+2⁻¹⁰ and
// nearest-even rounds it to 1 — error exactly 2⁻¹¹ — while powers of
// two and small integers are exact.
func TestF16RoundingReportKnownMatrix(t *testing.T) {
	const half11 = 1.0 / 2048 // 2⁻¹¹
	m := tensor.New(2, 3)
	copy(m.Row(0), []float32{1 + half11, 2, 0.5})
	copy(m.Row(1), []float32{1, 3, 0.25})
	st := F16RoundingReport(m)
	if st.Rows != 2 || st.Cols != 3 {
		t.Fatalf("shape %dx%d", st.Rows, st.Cols)
	}
	wantMax := []float64{half11, 0, 0}
	wantMean := []float64{half11 / 2, 0, 0}
	for j := range wantMax {
		if st.MaxErr[j] != wantMax[j] {
			t.Fatalf("col %d max err %g, want %g", j, st.MaxErr[j], wantMax[j])
		}
		if st.MeanErr[j] != wantMean[j] {
			t.Fatalf("col %d mean err %g, want %g", j, st.MeanErr[j], wantMean[j])
		}
	}
	if st.WorstCol != 0 || st.WorstErr != half11 || st.OverallMax != half11 {
		t.Fatalf("worst col %d err %g", st.WorstCol, st.WorstErr)
	}
	if want := half11 / 6; st.MeanAbs != want {
		t.Fatalf("matrix mean err %g, want %g", st.MeanAbs, want)
	}
	// The reported deltas are exactly what conversion applies: after
	// ConvertFeatures the same matrix reports all zeros.
	ds := f16TestDataset(t)
	if zero := F16RoundingReport(ds.Features); zero.OverallMax != 0 || zero.MeanAbs != 0 {
		t.Fatalf("converted matrix still reports rounding error %g", zero.OverallMax)
	}
}

// The fp32 decode is one copy on a little-endian host and an element
// loop elsewhere. Both must give the stored bits back unchanged: NaN
// payloads (quiet and signalling), both zeros, subnormals and both
// infinities, at every length 0–130 and every byte alignment of the
// source. littleEndian is switched inside the test so both branches run
// on this host.
func TestDecodeF32CopyMatchesLoop(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	patterns := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc12345, // quiet NaNs with payloads
		0x7f800001, 0xff812345, // signalling NaNs
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x007fffff, 0x80000001, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x3f800000, 0xc2f6e979, 0x7f7fffff, // ordinary and the largest finite
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 130; n++ {
		for align := 0; align < 4; align++ {
			want := make([]uint32, n)
			b := make([]byte, align+4*n)[align:]
			for i := range want {
				want[i] = patterns[rng.Intn(len(patterns))]
				if rng.Intn(4) == 0 {
					want[i] = rng.Uint32()
				}
				binary.LittleEndian.PutUint32(b[4*i:], want[i])
			}
			for _, le := range []bool{true, false} {
				littleEndian = le
				dst := make([]float32, n)
				for i := range dst {
					dst[i] = math.Float32frombits(0x7fbadbad) // no stale value may survive
				}
				if err := DtypeF32.decode(dst, b); err != nil {
					t.Fatal(err)
				}
				for i, v := range dst {
					if got := math.Float32bits(v); got != want[i] {
						t.Fatalf("n=%d align=%d littleEndian=%v: element %d decodes to %#08x, stored %#08x", n, align, le, i, got, want[i])
					}
				}
			}
		}
	}
}
