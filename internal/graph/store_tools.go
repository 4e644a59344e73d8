package graph

import (
	"bytes"
	"fmt"
	"os"
)

// knownSection reports whether this version of the code understands the
// section id (and can therefore carry it through a rewrite).
func knownSection(id uint32) bool { return id >= secSpec && id <= secFeaturesF16 }

// ConvertStore rewrites the dataset store at src with its features
// re-encoded in the requested dtype at dst (dst may equal src; the
// write is atomic either way). Narrowing to fp16 rounds each feature
// value once to nearest-even and refuses non-finite or out-of-range
// inputs (see Dataset.ConvertFeatures); widening to fp32 is exact.
// Converting a store already in the requested dtype reproduces it
// byte-for-byte (identical == true) — fp16 decode is exact and the
// writer is canonical — so the operation is idempotent. Shard stores
// are refused: the set-wide dtype lives in the manifest, so convert the
// base store and re-shard instead.
func ConvertStore(src, dst string, dt FeatDtype) (from FeatDtype, identical bool, err error) {
	lz, err := OpenLazy(src)
	if err != nil {
		return 0, false, err
	}
	for _, e := range lz.sections {
		if e.ID == secShardMap || e.ID == secManifest {
			lz.Close()
			return 0, false, fmt.Errorf("graph: %s: is a shard store; convert the base store and re-shard", src)
		}
		if !knownSection(e.ID) {
			lz.Close()
			return 0, false, fmt.Errorf("graph: %s: has a %s section this version cannot re-encode", src, SectionName(e.ID))
		}
	}
	from = lz.FeatDtype()
	srcRaw, err := os.ReadFile(src)
	if err != nil {
		lz.Close()
		return 0, false, err
	}
	d, err := lz.Dataset()
	closeErr := lz.Close()
	if err != nil {
		return 0, false, fmt.Errorf("graph: %s: %w", src, err)
	}
	if closeErr != nil {
		return 0, false, closeErr
	}
	if err := d.ConvertFeatures(dt); err != nil {
		return 0, false, fmt.Errorf("graph: %s: %w", src, err)
	}
	raw, err := d.encode()
	if err != nil {
		return 0, false, err
	}
	if err := saveAtomic(dst, raw); err != nil {
		return 0, false, err
	}
	return from, bytes.Equal(srcRaw, raw), nil
}

// StoreCheck summarises a fully verified store for tooling output.
type StoreCheck struct {
	FeatDtype FeatDtype
	Stats     Stats
	Sections  []SectionInfo
}

// VerifyStore checks the .argograph store at path end to end, in
// trust-nothing order: header, then the section table — where
// overlapping extents surface as ErrSectionOverlap and out-of-file
// extents as ErrSectionBounds, both before a single payload byte is
// decoded — then every section checksum (including sections with ids
// this code does not decode), then a full decode with every structural
// invariant (Dataset.Validate / CSR.Validate, plus the stats
// cross-check in topologyLocked).
func VerifyStore(path string) (*StoreCheck, error) {
	lz, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	defer lz.Close()
	err = lz.verifyAllSections()
	if err == nil {
		_, err = lz.Dataset()
	}
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return &StoreCheck{FeatDtype: lz.FeatDtype(), Stats: lz.Stats(), Sections: lz.Sections()}, nil
}
