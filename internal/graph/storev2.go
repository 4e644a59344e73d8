package graph

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"argo/internal/tensor"
)

// The .argograph version-2 container: a sectioned layout that lets a
// reader materialise only the parts of a store it needs.
//
//	offset  size          field
//	0       8             magic "ARGOGRPH"
//	8       4             format version = 2
//	12      4             payload kind: 1 = Dataset, 2 = CSR
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
	// StoreVersion is the one .argograph format version this build reads
	// and writes; any other is ErrUnsupportedVersion.
	StoreVersion = 2

	secSpec     = 1 // DatasetSpec as JSON
	secStats    = 2 // Stats as JSON
	secCSR      = 3 // u64 numNodes, u64 numArcs, i64×(n+1) RowPtr, i32×arcs Col
	secFeatures = 4 // u64 rows, u64 cols, f32×(rows·cols) row-major
	secLabels   = 5 // u64 count, i32×count
	secSplits   = 6 // 3 × (u64 count, i32×count) train/val/test

	// Shard-set sections (PR 4). Both ride the extensible section table:
	// a reader that predates them still opens, verifies (CRC-only for the
	// ids it cannot decode), and trains from a shard store, because the
	// dataset sections above are untouched.
	secShardMap = 7 // binary local↔global node map of one shard (see ShardMap)
	secManifest = 8 // ShardManifest as JSON, carried by the manifest shard only

	// Half-precision features (PR 9). An fp16 store carries this section
	// INSTEAD of secFeatures — same u64 rows, u64 cols prefix, payload of
	// little-endian uint16 fp16 bits. The id is above the shard sections
	// so the table's strictly-ascending invariant holds with extras
	// present; old readers fail cleanly ("store has no features section")
	// rather than misdecoding, and old stores (always fp32) read
	// unchanged.
	secFeaturesF16 = 9 // u64 rows, u64 cols, u16×(rows·cols) fp16 bits, row-major

	sectionEntryLen = 32
	// A v2 store has at most a handful of known sections; a table
	// claiming more is corruption (future versions bump the format
	// version).
	maxSections = 64

	// JSON sections are small by construction; a multi-megabyte spec or
	// stats blob is a crafted store, not a real one.
	maxJSONSection = 1 << 20
)

// Sentinel errors for section-table validation. They are distinct (and
// detected before any section payload is decoded) so tooling can tell a
// structurally malformed table from ordinary payload corruption.
var (
	// ErrSectionOverlap: two section extents intersect.
	ErrSectionOverlap = errors.New("graph: .argograph section extents overlap")
	// ErrSectionBounds: a section extent runs outside the file.
	ErrSectionBounds = errors.New("graph: .argograph section extent out of bounds")
)

// Stats is the precomputed stats section of a v2 store: everything the
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
// many arcs leave the partition (the halo-exchange traffic bound).
type ShardStats struct {
	Index   int   `json:"index"`    // this shard's index in the set
	Count   int   `json:"count"`    // number of shards in the set (k)
	Owned   int   `json:"owned"`    // nodes this shard owns
	Halo    int   `json:"halo"`     // 1-hop ghost nodes cached locally
	CutArcs int64 `json:"cut_arcs"` // arcs from owned nodes to halo nodes
}

// ComputeStats derives the stats section from a materialised dataset.
func ComputeStats(d *Dataset) Stats {
	s := Stats{
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
	return s
}

// csrStats is ComputeStats for a bare-topology store.
func csrStats(g *CSR) Stats {
	return Stats{
		NumNodes:   int64(g.NumNodes),
		NumArcs:    g.NumEdges(),
		MaxDegree:  g.MaxDegree(),
		AvgDegree:  g.AvgDegree(),
		DegreeHist: degreeHist(g),
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

// sectionEntry is one decoded row of the section table.
type sectionEntry struct {
	ID     uint32
	Offset uint64
	Length uint64
	CRC    uint32
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

// section is one (id, payload) pair handed to encodeSections.
type section struct {
	id      uint32
	payload []byte
}

// encodeSections lays out a v2 container from (id, payload) pairs and
// returns the full file bytes. Sections are written in the given order,
// back to back after the table.
func encodeSections(kind uint32, sections []section) []byte {
	tableLen := sectionEntryLen * len(sections)
	total := storeHeaderLen + tableLen
	for _, s := range sections {
		total += len(s.payload)
	}
	out := make([]byte, storeHeaderLen+tableLen, total)
	copy(out[:8], storeMagic)
	binary.LittleEndian.PutUint32(out[8:], StoreVersion)
	binary.LittleEndian.PutUint32(out[12:], kind)
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

// encodeDatasetV2 serialises d as a sectioned v2 container.
func encodeDatasetV2(d *Dataset) ([]byte, error) {
	return encodeDatasetV2Extra(d, nil, nil)
}

// encodeDatasetV2Extra serialises d with an optional stats override (the
// shard writer embeds its halo profile) and optional extra sections with
// ids above secSplits, appended after the standard six in the given
// order. It is the single writer both ordinary stores and shard stores
// go through, so the encoding stays canonical.
func encodeDatasetV2Extra(d *Dataset, statsOverride *Stats, extras []section) ([]byte, error) {
	specJSON, err := json.Marshal(d.Spec)
	if err != nil {
		return nil, fmt.Errorf("graph: encoding spec: %w", err)
	}
	st := ComputeStats(d)
	if statsOverride != nil {
		st = *statsOverride
	}
	// Whatever the override says, the stats dtype must describe the
	// features section actually written below.
	st.FeatDtype = d.FeatDtype.statsName()
	statsJSON, err := json.Marshal(st)
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
	sections := []section{
		{secSpec, specJSON},
		{secStats, statsJSON},
		{secCSR, csr.buf},
		{secLabels, labels.buf},
		{secSplits, splits.buf},
	}
	if d.FeatDtype != DtypeF16 {
		// fp32: the features payload keeps its historical slot between csr
		// and labels, so pre-dtype stores are reproduced byte-for-byte.
		sections = append(sections[:3], append([]section{{secFeatures, feats.buf}}, sections[3:]...)...)
	}
	last := uint32(secSplits)
	for _, e := range extras {
		if e.id <= last || e.id >= secFeaturesF16 {
			return nil, fmt.Errorf("graph: extra section id %d outside (%d,%d) (ids must stay strictly ascending)", e.id, secSplits, secFeaturesF16)
		}
		last = e.id
		sections = append(sections, e)
	}
	if d.FeatDtype == DtypeF16 {
		// The fp16 features section id sits above the shard extras, so it
		// goes last to keep the table strictly ascending.
		sections = append(sections, section{secFeaturesF16, feats.buf})
	}
	return encodeSections(storeKindDataset, sections), nil
}

// encodeCSRv2 serialises a bare topology as a sectioned v2 container
// (stats + csr sections only).
func encodeCSRv2(g *CSR) ([]byte, error) {
	statsJSON, err := json.Marshal(csrStats(g))
	if err != nil {
		return nil, fmt.Errorf("graph: encoding stats: %w", err)
	}
	var csr enc
	encodeCSR(&csr, g)
	return encodeSections(storeKindCSR, []section{
		{secStats, statsJSON},
		{secCSR, csr.buf},
	}), nil
}

// header2 is the decoded fixed header of a v2 store.
type header2 struct {
	kind     uint32
	count    uint32
	tableCRC uint32
	fileSize uint64
}

// parseHeader2 validates the fixed 32-byte header of a v2 store. Any
// other format version — older or newer — is ErrUnsupportedVersion.
func parseHeader2(hdr []byte) (h header2, err error) {
	if len(hdr) < storeHeaderLen {
		return h, fmt.Errorf("graph: .argograph header truncated: %d bytes", len(hdr))
	}
	if string(hdr[:8]) != storeMagic {
		return h, fmt.Errorf("graph: not an .argograph store (magic %q)", hdr[:8])
	}
	if version := binary.LittleEndian.Uint32(hdr[8:]); version != StoreVersion {
		return h, fmt.Errorf("%w %d (this build reads version %d)", ErrUnsupportedVersion, version, StoreVersion)
	}
	h.kind = binary.LittleEndian.Uint32(hdr[12:])
	h.count = binary.LittleEndian.Uint32(hdr[16:])
	h.tableCRC = binary.LittleEndian.Uint32(hdr[20:])
	h.fileSize = binary.LittleEndian.Uint64(hdr[24:])
	return h, nil
}

// parseSectionTable validates a v2 section table against the header and
// the true file size: table CRC, entry count, reserved fields, id order
// and uniqueness, and — before any section payload is decoded — that
// the extents are in bounds (ErrSectionBounds), non-overlapping
// (ErrSectionOverlap), and tile the file exactly.
func parseSectionTable(h header2, table []byte, fileSize int64) ([]sectionEntry, error) {
	if h.fileSize != uint64(fileSize) {
		return nil, fmt.Errorf("graph: header declares %d-byte store, file is %d bytes (truncated or padded)", h.fileSize, fileSize)
	}
	if h.count == 0 || h.count > maxSections {
		return nil, fmt.Errorf("graph: implausible section count %d", h.count)
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

// find returns the entry with the given section id, or false.
func findSection(entries []sectionEntry, id uint32) (sectionEntry, bool) {
	for _, e := range entries {
		if e.ID == id {
			return e, true
		}
	}
	return sectionEntry{}, false
}

// Section payload decoders. Each decoder consumes exactly its section's
// bytes; trailing bytes inside a section are corruption.

func decodeSpecSection(b []byte) (DatasetSpec, error) {
	var spec DatasetSpec
	if len(b) > maxJSONSection {
		return spec, fmt.Errorf("graph: spec section of %d bytes", len(b))
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("graph: decoding stored spec: %w", err)
	}
	return spec, nil
}

func decodeStatsSection(b []byte) (Stats, error) {
	var s Stats
	if len(b) > maxJSONSection {
		return s, fmt.Errorf("graph: stats section of %d bytes", len(b))
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("graph: decoding stored stats: %w", err)
	}
	return s, nil
}

func decodeCSRSection(b []byte) (*CSR, error) {
	d := dec{buf: b}
	g := decodeCSR(&d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes in csr section", len(d.buf)-d.off)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: stored CSR invalid: %w", err)
	}
	return g, nil
}

func decodeFeaturesSection(b []byte) (*tensor.Matrix, error) {
	d := dec{buf: b}
	rows := int(d.u64())
	cols := int(d.u64())
	if d.err == nil && (rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 ||
		(cols > 0 && rows > d.remaining()/4/cols)) {
		return nil, fmt.Errorf("graph: feature block %dx%d exceeds section", rows, cols)
	}
	data := d.f32s(rows * cols)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes in features section", len(d.buf)-d.off)
	}
	return tensor.FromSlice(rows, cols, data), nil
}

// decodeFeaturesF16Section decodes a features16 section into a float32
// matrix. Decoding is exact (fp16 widens losslessly); non-finite bit
// patterns are rejected so a corrupted or crafted store cannot inject
// Inf/NaN into the kernels.
func decodeFeaturesF16Section(b []byte) (*tensor.Matrix, error) {
	d := dec{buf: b}
	rows := int(d.u64())
	cols := int(d.u64())
	if d.err == nil && (rows < 0 || cols < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 ||
		(cols > 0 && rows > d.remaining()/2/cols)) {
		return nil, fmt.Errorf("graph: feature block %dx%d exceeds section", rows, cols)
	}
	data, err := d.halves(rows * cols)
	if d.err != nil {
		return nil, d.err
	}
	if err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes in features16 section", len(d.buf)-d.off)
	}
	return tensor.FromSlice(rows, cols, data), nil
}

func decodeLabelsSection(b []byte) ([]int32, error) {
	d := dec{buf: b}
	n := int(d.u64())
	if d.err == nil && (n < 0 || n > d.remaining()/4) {
		return nil, fmt.Errorf("graph: label block of %d exceeds section", n)
	}
	labels := d.i32s(n)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("graph: %d trailing bytes in labels section", len(d.buf)-d.off)
	}
	return labels, nil
}

func decodeSplitsSection(b []byte) (train, val, test []NodeID, err error) {
	d := dec{buf: b}
	var splits [3][]NodeID
	for i := range splits {
		n := int(d.u64())
		if d.err == nil && (n < 0 || n > d.remaining()/4) {
			return nil, nil, nil, fmt.Errorf("graph: split of %d ids exceeds section", n)
		}
		splits[i] = d.i32s(n)
	}
	if d.err != nil {
		return nil, nil, nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, nil, nil, fmt.Errorf("graph: %d trailing bytes in splits section", len(d.buf)-d.off)
	}
	return splits[0], splits[1], splits[2], nil
}
