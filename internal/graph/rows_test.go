package graph

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"argo/internal/tensor"
)

// Rows loads a shard set into one table: row v holds node v's features,
// bit for bit, and labels[v] its label, on fp32 and fp16 sets at k = 1,
// 3 and 4. No shard keeps a decoded feature matrix afterwards.
func TestShardSetRowsMatchSource(t *testing.T) {
	for _, dt := range []FeatDtype{DtypeF32, DtypeF16} {
		ds := shardTestDataset(t)
		if err := ds.ConvertFeatures(dt); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4} {
			ss := openTestShards(t, ds, ShardOptions{K: k})
			feats, labels, err := ss.Rows()
			if err != nil {
				t.Fatalf("%s k=%d: %v", dt, k, err)
			}
			if feats.Rows != ds.Features.Rows || feats.Cols != ds.Features.Cols {
				t.Fatalf("%s k=%d: table %dx%d, want %dx%d", dt, k,
					feats.Rows, feats.Cols, ds.Features.Rows, ds.Features.Cols)
			}
			for i, x := range feats.Data {
				if want := ds.Features.Data[i]; math.Float32bits(x) != math.Float32bits(want) {
					t.Fatalf("%s k=%d: node %d column %d is %v, want %v", dt, k,
						i/feats.Cols, i%feats.Cols, x, want)
				}
			}
			if !slices.Equal(labels, ds.Labels) {
				t.Fatalf("%s k=%d: labels differ from the source's", dt, k)
			}
			for s, lz := range ss.lazies {
				if lz.feats != nil {
					t.Fatalf("%s k=%d: shard %d kept a %dx%d feature matrix", dt, k, s, lz.feats.Rows, lz.feats.Cols)
				}
			}
		}
	}
}

// rowsError rewrites shard s of a fresh 3-shard set with edit and
// returns the error Rows reports on the set.
func rowsError(t *testing.T, s int, edit func(path string)) error {
	t.Helper()
	_, paths, _ := writeTestShards(t, shardTestDataset(t), 3)
	edit(paths[s])
	ss, err := OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	_, _, err = ss.Rows()
	return err
}

// A flipped byte anywhere in one shard's features section, a halo row
// included, fails Rows with the checksum error, naming the shard.
func TestShardSetRowsRefuseFlippedFeatureByte(t *testing.T) {
	err := rowsError(t, 1, func(path string) {
		lz, err := OpenLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := lz.entry(secFeatures)
		lz.Close()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[e.Offset+e.Length-1] ^= 0x40 // the last halo row's last element
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Rows() = %v, want shard 1's features checksum error", err)
	}
}

// A shard whose features section is one column narrower than the
// manifest's FeatDim, checksum intact, fails Rows naming the shard.
func TestShardSetRowsRefuseNarrowFeatures(t *testing.T) {
	err := rowsError(t, 2, func(path string) {
		lz, err := OpenLazy(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := lz.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		sm, err := lz.shardMap()
		if err != nil {
			t.Fatal(err)
		}
		stats := lz.Stats()
		lz.Close()
		narrow := tensor.New(d.Features.Rows, d.Features.Cols-1)
		for r := 0; r < narrow.Rows; r++ {
			copy(narrow.Row(r), d.Features.Row(r))
		}
		d.Features, stats.FeatCols = narrow, narrow.Cols
		raw, err := encodeDataset(d, stats, []section{{secShardMap, encodeShardMap(sm)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("Rows() = %v, want an error naming shard 2's narrow features", err)
	}
}
