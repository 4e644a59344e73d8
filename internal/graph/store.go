package graph

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"argo/internal/platform"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// The .argograph container: a sectioned layout that lets a reader
// materialise only the parts of a store it needs. Every multi-byte
// integer is little-endian; floats are stored as their IEEE-754 bit
// patterns, so features round-trip bit-exactly.
//
//	offset  size          field
//	0       8             magic "ARGOGRPH"
//	8       4             format version = 2
//	12      4             payload kind = 1 (dataset)
//	16      4             section count
//	20      4             CRC-32C of the section table bytes
//	24      8             total file size in bytes
//	32      32×count      section table
//	…       …             section payloads, back to back
//
// Each section-table entry is 32 bytes:
//
//	offset  size  field
//	0       4     section id (see sec* constants)
//	4       4     reserved, zero
//	8       8     section offset from the start of the file
//	16      8     section length in bytes
//	24      4     CRC-32C of the section payload
//	28      4     reserved, zero
//
// Sections are stored in ascending id order and are contiguous: the
// first starts immediately after the table and each next one starts
// exactly where the previous ended, with the last ending at the file
// size recorded in the header. Every byte of the file is therefore
// covered by exactly one checksum — the table CRC in the header or a
// section CRC in the table — so corruption anywhere is detected even by
// a reader that never decodes the damaged section's contents.
//
// The stats section (precomputed at write time, GNNAdvisor-style offline
// property extraction) gives topology- and metadata-only consumers the
// graph's shape — degree histogram, feature dims, split sizes — without
// touching the CSR or feature payloads at all.
const (
	storeMagic = "ARGOGRPH"

	// StoreVersion is the one .argograph format version this build reads
	// and writes; any other is ErrUnsupportedVersion.
	StoreVersion = 2

	// storeKindDataset is the one payload kind; a header naming any other
	// is refused at open.
	storeKindDataset = 1

	storeHeaderLen  = 32
	sectionEntryLen = 32
	// A store has at most a handful of known sections; a table claiming
	// more is corruption (future layouts bump the format version).
	maxSections = 64
	// JSON sections are small by construction; a multi-megabyte spec,
	// stats or manifest blob is a crafted store, not a real one.
	maxJSONSection = 1 << 20

	secSpec     = 1 // DatasetSpec as JSON
	secStats    = 2 // Stats as JSON
	secCSR      = 3 // u64 numNodes, u64 numArcs, i64×(n+1) RowPtr, i32×arcs Col
	secFeatures = 4 // u64 rows, u64 cols, f32×(rows·cols) row-major
	secLabels   = 5 // u64 count, i32×count
	secSplits   = 6 // 3 × (u64 count, i32×count) train/val/test

	// Shard-set sections ride on top of the six dataset sections, so a
	// reader that does not know them still opens, verifies (CRC only for
	// ids it cannot decode) and trains from a shard store.
	secShardMap = 7 // binary local↔global node map of one shard (see ShardMap)
	secManifest = 8 // ShardManifest as JSON, carried by the manifest shard only

	// Half-precision features: an fp16 store carries this section INSTEAD
	// of secFeatures. Its id sits above the shard sections so the table
	// stays strictly ascending with them present, and a reader that does
	// not know it fails cleanly ("store has no features section") rather
	// than misdecoding; fp32 stores never carry it.
	secFeaturesF16 = 9 // u64 rows, u64 cols, u16×(rows·cols) fp16 bits, row-major
)

// ErrUnsupportedVersion is wrapped (with the version found) by every
// opener handed a well-formed .argograph header of a format version this
// build does not read — including version 1, the monolithic layout
// written before the sectioned one replaced it.
var ErrUnsupportedVersion = errors.New("graph: unsupported .argograph version")

// Sentinel errors for section-table validation. They are distinct (and
// detected before any section payload is decoded) so tooling can tell a
// structurally malformed table from ordinary payload corruption.
var (
	// ErrSectionOverlap: two section extents intersect.
	ErrSectionOverlap = errors.New("graph: .argograph section extents overlap")
	// ErrSectionBounds: a section extent runs outside the file.
	ErrSectionBounds = errors.New("graph: .argograph section extent out of bounds")
)

// CRC-32C has hardware support on both amd64 and arm64, which keeps the
// integrity check far off the load critical path (multiple GB/s).
var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// Stats is the precomputed stats section of a store: everything the
// registry, the tuner's warm-start matcher, and `argo-data inspect`
// need, readable without touching topology or feature bytes.
type Stats struct {
	NumNodes   int64   `json:"num_nodes"`
	NumArcs    int64   `json:"num_arcs"`
	NumClasses int     `json:"num_classes"`
	FeatRows   int     `json:"feat_rows"`
	FeatCols   int     `json:"feat_cols"`
	TrainCount int     `json:"train_count"`
	ValCount   int     `json:"val_count"`
	TestCount  int     `json:"test_count"`
	MaxDegree  int     `json:"max_degree"`
	AvgDegree  float64 `json:"avg_degree"`
	// DegreeHist[i] counts nodes whose out-degree has bit-length i:
	// bucket 0 is degree 0, bucket 1 is degree 1, bucket i≥2 covers
	// [2^(i−1), 2^i). Trailing empty buckets are trimmed.
	DegreeHist []int64 `json:"degree_hist"`
	// Shard carries the halo/ownership profile when this store is one
	// shard of a ShardSet; nil for ordinary stores, so their stats JSON
	// (and therefore their bytes) are unchanged from pre-shard writers.
	Shard *ShardStats `json:"shard,omitempty"`
	// FeatDtype is the feature element encoding: "fp16", or empty for
	// fp32, so pre-dtype stores' stats bytes are unchanged. The section
	// table is authoritative (the dtype decides which features section
	// exists); this copy makes the dtype visible to metadata-only readers.
	FeatDtype string `json:"feat_dtype,omitempty"`
}

// ShardStats is the per-shard profile embedded in a shard store's stats
// section: how much of the store is owned versus halo-cached, and how
// many arcs leave the partition (the bound on rows read across shards).
type ShardStats struct {
	Index   int   `json:"index"`    // this shard's index in the set
	Count   int   `json:"count"`    // number of shards in the set (k)
	Owned   int   `json:"owned"`    // nodes this shard owns
	Halo    int   `json:"halo"`     // 1-hop ghost nodes cached locally
	CutArcs int64 `json:"cut_arcs"` // arcs from owned nodes to halo nodes
}

// ComputeStats derives the stats section from a materialised dataset.
func ComputeStats(d *Dataset) Stats {
	return Stats{
		NumNodes:   int64(d.Graph.NumNodes),
		NumArcs:    d.Graph.NumEdges(),
		NumClasses: d.NumClasses,
		FeatRows:   d.Features.Rows,
		FeatCols:   d.Features.Cols,
		TrainCount: len(d.TrainIdx),
		ValCount:   len(d.ValIdx),
		TestCount:  len(d.TestIdx),
		MaxDegree:  d.Graph.MaxDegree(),
		AvgDegree:  d.Graph.AvgDegree(),
		DegreeHist: degreeHist(d.Graph),
		FeatDtype:  d.FeatDtype.statsName(),
	}
}

func degreeHist(g *CSR) []int64 {
	hist := make([]int64, 0, 32)
	for v := 0; v < g.NumNodes; v++ {
		b := bits.Len(uint(g.Degree(NodeID(v))))
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// SectionName returns the human-readable name of a section id, for
// `argo-data inspect` output.
func SectionName(id uint32) string {
	switch id {
	case secSpec:
		return "spec"
	case secStats:
		return "stats"
	case secCSR:
		return "csr"
	case secFeatures:
		return "features"
	case secLabels:
		return "labels"
	case secSplits:
		return "splits"
	case secShardMap:
		return "shardmap"
	case secManifest:
		return "manifest"
	case secFeaturesF16:
		return "features16"
	}
	return fmt.Sprintf("unknown(%d)", id)
}

// Write serialises the dataset in .argograph format.
func (d *Dataset) Write(w io.Writer) error {
	b, err := d.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Save writes the dataset to path in .argograph format. The file is
// written to a temporary sibling first and renamed into place, so readers
// never observe a torn store.
func (d *Dataset) Save(path string) error {
	b, err := d.encode()
	if err != nil {
		return err
	}
	return saveAtomic(path, b)
}

// encode validates d and returns its store bytes.
func (d *Dataset) encode() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("graph: refusing to write invalid dataset: %w", err)
	}
	return encodeDataset(d, ComputeStats(d), nil)
}

// Validate checks every structural invariant the training stack relies
// on: a valid CSR, features covering every node, labels within the class
// range, and split indices in bounds and mutually disjoint. It is the
// gate both sides of the binary store go through.
func (d *Dataset) Validate() error {
	if d.Graph == nil {
		return fmt.Errorf("graph: dataset has no graph")
	}
	if err := d.Graph.Validate(); err != nil {
		return err
	}
	n := d.Graph.NumNodes
	if d.Features == nil {
		return fmt.Errorf("graph: dataset has no features")
	}
	if d.Features.Rows != n {
		return fmt.Errorf("graph: %d feature rows for %d nodes", d.Features.Rows, n)
	}
	if d.Features.Cols < 1 {
		return fmt.Errorf("graph: feature width %d", d.Features.Cols)
	}
	if len(d.Features.Data) != d.Features.Rows*d.Features.Cols {
		return fmt.Errorf("graph: feature storage %d for %dx%d", len(d.Features.Data), d.Features.Rows, d.Features.Cols)
	}
	if d.FeatDtype == DtypeF16 {
		// The fp16 invariant: every value exactly representable, so each
		// store/wire re-encode of this dataset is lossless.
		if err := d.validateF16Exact(); err != nil {
			return err
		}
	}
	if d.NumClasses < 1 {
		return fmt.Errorf("graph: %d classes", d.NumClasses)
	}
	if len(d.Labels) != n {
		return fmt.Errorf("graph: %d labels for %d nodes", len(d.Labels), n)
	}
	for v, c := range d.Labels {
		if c < 0 || int(c) >= d.NumClasses {
			return fmt.Errorf("graph: node %d label %d outside [0,%d)", v, c, d.NumClasses)
		}
	}
	seen := make([]bool, n)
	for _, split := range []struct {
		name string
		ids  []NodeID
	}{{"train", d.TrainIdx}, {"val", d.ValIdx}, {"test", d.TestIdx}} {
		for _, v := range split.ids {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: %s index %d outside [0,%d)", split.name, v, n)
			}
			if seen[v] {
				return fmt.Errorf("graph: node %d appears in two splits (train/test leakage)", v)
			}
			seen[v] = true
		}
	}
	if len(d.TrainIdx) == 0 {
		return fmt.Errorf("graph: empty training split")
	}
	return nil
}

// saveAtomic writes b to path through a temporary sibling renamed into
// place.
func saveAtomic(path string, b []byte) error {
	return platform.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// section is one (id, payload) pair handed to encodeSections.
type section struct {
	id      uint32
	payload []byte
}

// encodeDataset serialises d with the given stats section (shard stores
// embed their halo profile in it) and optional extra sections with ids
// above secSplits, appended after the dataset sections in the given
// order. It is the one writer ordinary and shard stores go through, so
// the encoding stays canonical.
func encodeDataset(d *Dataset, stats Stats, extras []section) ([]byte, error) {
	specJSON, err := json.Marshal(d.Spec)
	if err != nil {
		return nil, fmt.Errorf("graph: encoding spec: %w", err)
	}
	statsJSON, err := json.Marshal(stats)
	if err != nil {
		return nil, fmt.Errorf("graph: encoding stats: %w", err)
	}
	var csr enc
	encodeCSR(&csr, d.Graph)
	var feats enc
	feats.u64(uint64(d.Features.Rows))
	feats.u64(uint64(d.Features.Cols))
	if d.FeatDtype == DtypeF16 {
		feats.halves(d.Features.Data)
	} else {
		feats.f32s(d.Features.Data)
	}
	var labels enc
	labels.u64(uint64(len(d.Labels)))
	labels.i32s(d.Labels)
	var splits enc
	for _, split := range [][]NodeID{d.TrainIdx, d.ValIdx, d.TestIdx} {
		splits.u64(uint64(len(split)))
		splits.i32s(split)
	}
	sections := []section{{secSpec, specJSON}, {secStats, statsJSON}, {secCSR, csr.buf}}
	if d.FeatDtype != DtypeF16 {
		// fp32 features keep their slot between csr and labels.
		sections = append(sections, section{secFeatures, feats.buf})
	}
	sections = append(sections, section{secLabels, labels.buf}, section{secSplits, splits.buf})
	for _, e := range extras {
		if e.id <= sections[len(sections)-1].id || e.id >= secFeaturesF16 {
			return nil, fmt.Errorf("graph: extra section id %d outside (%d,%d) (ids must stay strictly ascending)", e.id, secSplits, secFeaturesF16)
		}
		sections = append(sections, e)
	}
	if d.FeatDtype == DtypeF16 {
		// The fp16 features section id sits above the shard extras, so it
		// goes last to keep the table strictly ascending.
		sections = append(sections, section{secFeaturesF16, feats.buf})
	}
	return encodeSections(sections), nil
}

func encodeCSR(e *enc, g *CSR) {
	e.u64(uint64(g.NumNodes))
	e.u64(uint64(len(g.Col)))
	e.i64s(g.RowPtr)
	e.i32s(g.Col)
}

// encodeSections lays out a dataset store from (id, payload) pairs and
// returns the full file bytes. Sections are written in the given order,
// back to back after the table.
func encodeSections(sections []section) []byte {
	tableLen := sectionEntryLen * len(sections)
	total := storeHeaderLen + tableLen
	for _, s := range sections {
		total += len(s.payload)
	}
	out := make([]byte, storeHeaderLen+tableLen, total)
	copy(out[:8], storeMagic)
	binary.LittleEndian.PutUint32(out[8:], StoreVersion)
	binary.LittleEndian.PutUint32(out[12:], storeKindDataset)
	binary.LittleEndian.PutUint32(out[16:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(out[24:], uint64(total))
	off := uint64(storeHeaderLen + tableLen)
	for i, s := range sections {
		e := out[storeHeaderLen+i*sectionEntryLen:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(s.payload, storeCRC))
		off += uint64(len(s.payload))
	}
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(out[storeHeaderLen:storeHeaderLen+tableLen], storeCRC))
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out
}

// header is the decoded fixed header of a store.
type header struct {
	count    uint32
	tableCRC uint32
	fileSize uint64
}

// parseHeader validates the fixed 32-byte header: magic, format version
// (any other — older or newer — is ErrUnsupportedVersion), payload kind
// and a plausible section count.
func parseHeader(hdr []byte) (h header, err error) {
	if len(hdr) < storeHeaderLen {
		return h, fmt.Errorf("graph: .argograph header truncated: %d bytes", len(hdr))
	}
	if string(hdr[:8]) != storeMagic {
		return h, fmt.Errorf("graph: not an .argograph store (magic %q)", hdr[:8])
	}
	if version := binary.LittleEndian.Uint32(hdr[8:]); version != StoreVersion {
		return h, fmt.Errorf("%w %d (this build reads version %d)", ErrUnsupportedVersion, version, StoreVersion)
	}
	if kind := binary.LittleEndian.Uint32(hdr[12:]); kind != storeKindDataset {
		return h, fmt.Errorf("graph: unknown .argograph payload kind %d", kind)
	}
	h.count = binary.LittleEndian.Uint32(hdr[16:])
	if h.count == 0 || h.count > maxSections {
		return h, fmt.Errorf("graph: implausible section count %d", h.count)
	}
	h.tableCRC = binary.LittleEndian.Uint32(hdr[20:])
	h.fileSize = binary.LittleEndian.Uint64(hdr[24:])
	return h, nil
}

// sectionEntry is one decoded row of the section table.
type sectionEntry struct {
	ID     uint32
	Offset uint64
	Length uint64
	CRC    uint32
}

// parseSectionTable validates a section table against the header and
// the true file size: table CRC, reserved fields, id order and
// uniqueness, and — before any section payload is decoded — that the
// extents are in bounds (ErrSectionBounds), non-overlapping
// (ErrSectionOverlap), and tile the file exactly.
func parseSectionTable(h header, table []byte, fileSize int64) ([]sectionEntry, error) {
	if h.fileSize != uint64(fileSize) {
		return nil, fmt.Errorf("graph: header declares %d-byte store, file is %d bytes (truncated or padded)", h.fileSize, fileSize)
	}
	need := int(h.count) * sectionEntryLen
	if len(table) < need {
		return nil, fmt.Errorf("graph: section table truncated: need %d bytes, have %d", need, len(table))
	}
	table = table[:need]
	if sum := crc32.Checksum(table, storeCRC); sum != h.tableCRC {
		return nil, fmt.Errorf("graph: section table checksum mismatch")
	}
	entries := make([]sectionEntry, h.count)
	next := uint64(storeHeaderLen + need)
	for i := range entries {
		e := table[i*sectionEntryLen:]
		entries[i] = sectionEntry{
			ID:     binary.LittleEndian.Uint32(e[0:]),
			Offset: binary.LittleEndian.Uint64(e[8:]),
			Length: binary.LittleEndian.Uint64(e[16:]),
			CRC:    binary.LittleEndian.Uint32(e[24:]),
		}
		s := entries[i]
		if i > 0 && s.ID <= entries[i-1].ID {
			return nil, fmt.Errorf("graph: section ids not strictly ascending (%d after %d)", s.ID, entries[i-1].ID)
		}
		// Bounds before overlap: length is checked against the file size
		// first so Offset+Length cannot wrap (both fit in the file).
		if s.Offset > uint64(fileSize) || s.Length > uint64(fileSize)-s.Offset {
			return nil, fmt.Errorf("%w: section %s at [%d,+%d) in %d-byte file",
				ErrSectionBounds, SectionName(s.ID), s.Offset, s.Length, fileSize)
		}
		if s.Offset < next {
			return nil, fmt.Errorf("%w: section %s at [%d,+%d) begins before byte %d",
				ErrSectionOverlap, SectionName(s.ID), s.Offset, s.Length, next)
		}
		if s.Offset > next {
			return nil, fmt.Errorf("graph: %d-byte gap before section %s (sections must be contiguous)",
				s.Offset-next, SectionName(s.ID))
		}
		next = s.Offset + s.Length
	}
	if next != uint64(fileSize) {
		return nil, fmt.Errorf("graph: %d trailing bytes after last section", uint64(fileSize)-next)
	}
	return entries, nil
}

// findSection returns the entry with the given section id, or false.
func findSection(entries []sectionEntry, id uint32) (sectionEntry, bool) {
	for _, e := range entries {
		if e.ID == id {
			return e, true
		}
	}
	return sectionEntry{}, false
}

// Section payload decoders. Each consumes exactly its section's bytes;
// trailing bytes inside a section are corruption.

func decodeCSRSection(b []byte) (*CSR, error) {
	d := dec{buf: b}
	numNodes, numArcs := d.u64(), d.u64()
	if d.err == nil && numNodes >= math.MaxInt32 {
		d.fail(fmt.Errorf("graph: CSR of %d nodes exceeds the node id range", numNodes))
	}
	rowPtr := d.i64s(d.elems(numNodes+1, 8))
	col := d.i32s(d.elems(numArcs, 4))
	if err := d.done(secCSR); err != nil {
		return nil, err
	}
	g := &CSR{NumNodes: int(numNodes), RowPtr: rowPtr, Col: col}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: stored CSR invalid: %w", err)
	}
	return g, nil
}

// decodeFeaturesSection decodes a features (fp32) or features16 section
// into a float32 matrix. fp16 widens exactly; its non-finite bit
// patterns are rejected so a corrupted or crafted store cannot inject
// Inf/NaN into the kernels.
func decodeFeaturesSection(b []byte, dt FeatDtype) (*tensor.Matrix, error) {
	rows, cols, err := featuresShape(b, dt)
	if err != nil {
		return nil, err
	}
	m := tensor.New(rows, cols)
	if err := dt.decode(m.Data, b[16:]); err != nil {
		return nil, fmt.Errorf("graph: %s section: %w", SectionName(dt.section()), err)
	}
	return m, nil
}

// featuresShape reads a features section's (rows, cols) prefix and
// checks that exactly rows×cols elements of dt follow it.
func featuresShape(b []byte, dt FeatDtype) (rows, cols int, err error) {
	d := dec{buf: b}
	r, c := d.u64(), d.u64()
	if d.err == nil && (r > math.MaxInt32 || c > math.MaxInt32) {
		d.fail(fmt.Errorf("graph: feature block %dx%d exceeds section", r, c))
	}
	d.take(d.elems(r*c, dt.Size()) * dt.Size())
	return int(r), int(c), d.done(dt.section())
}

// littleEndian reports whether this host lays a float32 out in memory
// as the store does, low byte first, so fp32 rows decode as one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decode widens the stored feature elements b into dst, one per element
// of dst. fp16 bits that are not finite are refused: the writer only
// emits finite fp16, so such bits are corruption (or a crafted store)
// the kernels must not see. fp32 bits are copied unchanged, NaN
// payloads included.
func (t FeatDtype) decode(dst []float32, b []byte) error {
	if t == DtypeF16 {
		for i := range dst {
			h := binary.LittleEndian.Uint16(b[2*i:])
			if !half.IsFinite(h) {
				return fmt.Errorf("non-finite fp16 bits %#04x at element %d", h, i)
			}
			dst[i] = half.FromBits(h)
		}
		return nil
	}
	if littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), b[:4*len(dst)])
		return nil
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}

func decodeLabelsSection(b []byte) ([]int32, error) {
	d := dec{buf: b}
	labels := d.i32s(d.count(4))
	return labels, d.done(secLabels)
}

func decodeSplitsSection(b []byte) (*[3][]NodeID, error) {
	d := dec{buf: b}
	var splits [3][]NodeID
	for i := range splits {
		splits[i] = d.i32s(d.count(4))
	}
	return &splits, d.done(secSplits)
}

// enc builds the little-endian payload. Slices are appended in one grow
// per field, keeping Save roughly memcpy-speed.
type enc struct{ buf []byte }

func (e *enc) grow(n int) []byte {
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[off:]
}

func (e *enc) u32(v uint32) { binary.LittleEndian.PutUint32(e.grow(4), v) }
func (e *enc) u64(v uint64) { binary.LittleEndian.PutUint64(e.grow(8), v) }
func (e *enc) i64s(xs []int64) {
	b := e.grow(8 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}
func (e *enc) i32s(xs []int32) {
	b := e.grow(4 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}
func (e *enc) f32s(xs []float32) {
	b := e.grow(4 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}
func (e *enc) halves(xs []float32) {
	half.EncodeBytes(e.grow(2*len(xs)), xs)
}

// dec consumes a section payload with a latched error: after the first
// failure every further read returns zero values, so a decoder stays
// linear and checks the error once, in done.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// elems returns n once n elements of size bytes are known to fit in the
// unread payload, and 0 with the error latched otherwise. The check
// divides, never multiplies, so a crafted count can neither overflow it
// nor drive an oversized allocation.
func (d *dec) elems(n uint64, size int) int {
	if left := len(d.buf) - d.off; d.err == nil && n > uint64(left/size) {
		d.fail(fmt.Errorf("graph: %d elements of %d bytes exceed the %d bytes left in the section", n, size, left))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// count reads the u64 length prefix of a block of size-byte elements.
func (d *dec) count(size int) int { return d.elems(d.u64(), size) }

// done returns the latched error, or a corruption error if the section
// has bytes the decoder did not consume.
func (d *dec) done(id uint32) error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail(fmt.Errorf("graph: %d trailing bytes in %s section", len(d.buf)-d.off, SectionName(id)))
	}
	return d.err
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf)-d.off {
		d.fail(fmt.Errorf("graph: truncated payload: need %d bytes, have %d", n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64s(n int) []int64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (d *dec) i32s(n int) []int32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
