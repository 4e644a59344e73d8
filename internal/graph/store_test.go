package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func storeTestDataset(t testing.TB) *Dataset {
	t.Helper()
	spec := DatasetSpec{
		Name:        "store-unit",
		Paper:       PaperStats{Vertices: 400, Edges: 3000, F0: 10, F1: 8, F2: 5},
		ScaledNodes: 400, ScaledEdges: 3000,
		ScaledF0: 10, ScaledHidden: 8, ScaledClasses: 5,
		Homophily: 0.6, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := Build(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetStoreRoundTrip(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "store.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("dataset did not round-trip bit-exactly through the binary store")
	}
}

// topologyAt opens the store at path lazily and decodes its topology
// alone, as a topology-only consumer does.
func topologyAt(path string) (*CSR, error) {
	lz, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	defer lz.Close()
	return lz.Topology()
}

// topologyOf is topologyAt for a store image held in memory.
func topologyOf(b []byte) (*CSR, error) {
	lz, err := openReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return lz.Topology()
}

// specOf opens a store image and returns its spec; only the metadata
// sections are decoded.
func specOf(b []byte) (DatasetSpec, error) {
	lz, err := openReader(bytes.NewReader(b))
	if err != nil {
		return DatasetSpec{}, err
	}
	return lz.Spec(), nil
}

// The golden header pins the on-disk framing: any accidental change to
// the magic, version, or field layout shows up as a corrupted prefix
// here rather than as silent incompatibility discovered by a user.
func TestStoreGoldenHeader(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < storeHeaderLen {
		t.Fatalf("store shorter than its header: %d bytes", len(b))
	}
	if got := string(b[:8]); got != "ARGOGRPH" {
		t.Fatalf("magic %q", got)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != 2 {
		t.Fatalf("version %d, want 2", v)
	}
	if k := binary.LittleEndian.Uint32(b[12:]); k != storeKindDataset {
		t.Fatalf("kind %d, want %d", k, storeKindDataset)
	}
	if n := binary.LittleEndian.Uint32(b[16:]); n != 6 {
		t.Fatalf("section count %d, want 6 (spec/stats/csr/features/labels/splits)", n)
	}
	if sz := binary.LittleEndian.Uint64(b[24:]); int(sz) != len(b) {
		t.Fatalf("declared file size %d, actual %d", sz, len(b))
	}
	// Writes are deterministic: the same dataset encodes to the same bytes.
	// Convert idempotence and the shard byte-stability gate in CI both
	// lean on this.
	var again bytes.Buffer
	if err := ds.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, again.Bytes()) {
		t.Fatal("two writes of the same dataset differ")
	}
}

// goldenV1 is a store in the retired monolithic version-1 layout (one
// checksummed payload after the 32-byte header), checked in and never
// regenerated: the negative fixture for ErrUnsupportedVersion.
const goldenV1 = "testdata/golden-v1.argograph"

// The negative fixture must stay a well-formed version-1 store — magic,
// version 1, dataset kind, a payload length and checksum that hold — so
// the rejection tests reject it for its version and nothing else.
func TestStoreGoldenHeaderV1(t *testing.T) {
	b, err := os.ReadFile(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != storeMagic {
		t.Fatalf("magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != 1 {
		t.Fatalf("version %d, want 1", v)
	}
	if k := binary.LittleEndian.Uint32(b[12:]); k != storeKindDataset {
		t.Fatalf("kind %d, want %d", k, storeKindDataset)
	}
	if l := binary.LittleEndian.Uint64(b[16:]); int(l) != len(b)-storeHeaderLen {
		t.Fatalf("declared payload %d, actual %d", l, len(b)-storeHeaderLen)
	}
	if sum := binary.LittleEndian.Uint32(b[24:]); sum != crc32.Checksum(b[storeHeaderLen:], storeCRC) {
		t.Fatal("fixture payload checksum does not hold")
	}
}

func TestStoreRejectsForeignMagic(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	copy(b, "NOTAGRPH")
	if _, err := ReadDataset(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "not an .argograph") {
		t.Fatalf("foreign magic accepted: %v", err)
	}
}

func TestStoreRejectsFutureVersion(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[8:], StoreVersion+1)
	if _, err := ReadDataset(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestStoreRejectsWrongKind(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[12:], 2) // the retired bare-CSR kind
	if _, err := ReadDataset(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("payload kind 2 read as dataset: %v", err)
	}
}

func TestStoreRejectsCorruptedPayload(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip one bit in each third of the payload.
	for _, at := range []int{storeHeaderLen + 3, storeHeaderLen + (len(b)-storeHeaderLen)/2, len(b) - 1} {
		mut := append([]byte(nil), b...)
		mut[at] ^= 0x40
		if _, err := ReadDataset(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped bit at %d accepted: %v", at, err)
		}
	}
}

func TestStoreRejectsTruncation(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Every truncation point must produce an error, never a panic or a
	// silently short dataset: inside the header, right at its end, and
	// through the payload.
	cuts := []int{0, 1, 7, storeHeaderLen - 1, storeHeaderLen, storeHeaderLen + 1,
		storeHeaderLen + (len(b)-storeHeaderLen)/3, len(b) - 1}
	for _, cut := range cuts {
		if _, err := ReadDataset(bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(b))
		}
	}
}

func TestStoreRejectsTrailingBytes(t *testing.T) {
	ds := storeTestDataset(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Padding the file must be rejected, with or without the header's
	// file size fixed up to match: the sections tile the file exactly.
	b := append(buf.Bytes(), 0, 0, 0, 0)
	if _, err := ReadDataset(bytes.NewReader(b)); err == nil {
		t.Fatal("padded store accepted")
	}
	binary.LittleEndian.PutUint64(b[24:], uint64(len(b)))
	if _, err := ReadDataset(bytes.NewReader(b)); err == nil {
		t.Fatal("padded store with a matching declared size accepted")
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "absent.argograph")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestWriteRejectsInvalidDataset(t *testing.T) {
	ds := storeTestDataset(t)
	ds.Labels[0] = int32(ds.NumClasses) + 3
	var buf bytes.Buffer
	if err := ds.Write(&buf); err == nil {
		t.Fatal("out-of-range label written to store")
	}
}

func TestValidateCatchesSplitOutOfRange(t *testing.T) {
	ds := storeTestDataset(t)
	ds.ValIdx = append(ds.ValIdx, NodeID(ds.Graph.NumNodes))
	if err := ds.Validate(); err == nil {
		t.Fatal("out-of-range val index passed Validate")
	}
}

// FuzzReadDataset drives the decoder with arbitrary bytes: it must
// reject or accept, never panic or over-allocate, and anything it
// accepts must satisfy every dataset invariant.
func FuzzReadDataset(f *testing.F) {
	ds := storeTestDataset(f)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:storeHeaderLen])
	f.Add([]byte("ARGOGRPH"))
	f.Add([]byte{})
	// A retired-version store must be rejected from the header alone.
	v1, err := os.ReadFile(goldenV1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	// The fp16 encoding decodes through its own section path; seed it too.
	var f16 bytes.Buffer
	if err := f16TestDataset(f).Write(&f16); err != nil {
		f.Fatal(err)
	}
	f.Add(f16.Bytes())
	f.Add(f16.Bytes()[:len(f16.Bytes())/2])
	// A header declaring a huge payload over a tiny body.
	huge := append([]byte(nil), valid[:storeHeaderLen]...)
	binary.LittleEndian.PutUint64(huge[16:], 1<<60)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
	})
}

// craftedStore swaps the payload of one section of a valid store of ds
// for raw and re-frames it, so the table and every checksum hold and
// only the section decoder stands between the crafted counts and an
// allocation.
func craftedStore(t *testing.T, ds *Dataset, id uint32, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	var sections []section
	for _, e := range sectionTableOf(t, b) {
		payload := b[e.Offset : e.Offset+e.Length]
		if e.ID == id {
			payload = raw
		}
		sections = append(sections, section{e.ID, payload})
	}
	return encodeSections(sections)
}

// A crafted store whose declared counts are near MaxInt64 must be
// rejected, not panic in makeslice: the length guards must be
// overflow-proof (they divide, never multiply).
func TestStoreRejectsOverflowingCounts(t *testing.T) {
	ds := storeTestDataset(t)
	// CSR section: numNodes=1, numArcs=2^62+1, a plausible rowPtr, no cols.
	var e enc
	e.u64(1)
	e.u64(1<<62 + 1)
	e.i64s([]int64{0, 0})
	if _, err := topologyOf(craftedStore(t, ds, secCSR, e.buf)); err == nil {
		t.Fatal("2^62+1 arcs accepted")
	}
	// Features section: a block whose size would overflow the rows*cols*4
	// guard.
	for _, counts := range [][2]uint64{
		{1<<62 + 1, 1},     // featRows overflow
		{1 << 31, 1 << 31}, // featRows*featCols overflow
	} {
		var p enc
		p.u64(counts[0])
		p.u64(counts[1])
		if _, err := ReadDataset(bytes.NewReader(craftedStore(t, ds, secFeatures, p.buf))); err == nil {
			t.Fatalf("feature block %d x %d accepted", counts[0], counts[1])
		}
	}
	// Labels and splits sections: a huge id count over an empty body.
	for _, id := range []uint32{secLabels, secSplits} {
		var p enc
		p.u64(1<<62 + 1)
		if _, err := ReadDataset(bytes.NewReader(craftedStore(t, ds, id, p.buf))); err == nil {
			t.Fatalf("2^62+1 ids accepted in the %s section", SectionName(id))
		}
	}
}

// Opening a store serves the spec from the metadata sections alone: damage to
// the sections behind them does not reach it, damage inside the spec
// section does.
func TestReadSpecPrefixOnly(t *testing.T) {
	ds := storeTestDataset(t)
	b, entries := v2TestBytes(t)
	spec, err := specOf(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, ds.Spec) {
		t.Fatalf("spec = %+v, want %+v", spec, ds.Spec)
	}
	// The spec must decode even when everything behind the metadata is
	// garbage — that is the point of reading the spec section only.
	tail := append([]byte(nil), b...)
	for i := len(tail) / 2; i < len(tail); i++ {
		tail[i] ^= 0xff
	}
	if got, err := specOf(tail); err != nil || !reflect.DeepEqual(got, ds.Spec) {
		t.Fatalf("spec read reached past the metadata sections: %v", err)
	}
	// But a store damaged inside the spec section must be rejected.
	e, ok := findSection(entries, secSpec)
	if !ok {
		t.Fatal("store has no spec section")
	}
	head := append([]byte(nil), b...)
	head[e.Offset+e.Length/2] ^= 0x40
	if _, err := specOf(head); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("damaged spec accepted: %v", err)
	}
	if _, err := specOf([]byte("ARGOGRPH")); err == nil {
		t.Fatal("bare magic accepted")
	}
}

// A checksum-valid store whose RowPtr points past Col must be rejected
// by Validate, never panic in Neighbors.
func TestStoreRejectsRowPtrPastCol(t *testing.T) {
	var e enc
	e.u64(1) // numNodes
	e.u64(0) // numArcs
	e.i64s([]int64{0, 100})
	b := craftedStore(t, storeTestDataset(t), secCSR, e.buf)
	if _, err := topologyOf(b); err == nil || !strings.Contains(err.Error(), "exceeds len(Col)") {
		t.Fatalf("RowPtr past Col accepted: %v", err)
	}
}

func TestValidateCatchesOverlappingSplits(t *testing.T) {
	ds := storeTestDataset(t)
	ds.ValIdx[0] = ds.TrainIdx[0]
	if err := ds.Validate(); err == nil || !strings.Contains(err.Error(), "two splits") {
		t.Fatalf("overlapping splits passed Validate: %v", err)
	}
}

func TestSaveProducesWorldReadableStore(t *testing.T) {
	ds := storeTestDataset(t)
	path := filepath.Join(t.TempDir(), "perm.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("store saved with mode %v, want 0644", fi.Mode().Perm())
	}
}
