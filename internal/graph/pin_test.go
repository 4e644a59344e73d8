package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// pinnedStoreHashes are the SHA-256 digests of every store the writers
// produce for storeTestDataset, recorded before the codec was merged into
// one file. The on-disk format is frozen: any change to these bytes is a
// format change, not a refactor. The two shard-0 digests were recorded
// again when the manifest became version 2 and dropped its owner runs.
var pinnedStoreHashes = map[string]string{
	"store.fp32":                "0e8dc8ed41da9ac3b80e4705fbd812169c2c42775c732d23f14220b8051928db",
	"store.fp16":                "7f8738110507b75878f98321a0b8f3321cc8fc9b8249a78c0304526fdf990dc7",
	"pin-fp32.shard0.argograph": "b75b44f3f2e2bb573fe20a59bf765715d19395d996879632b9133198ce8bbdd0",
	"pin-fp32.shard1.argograph": "7321907e6f7abc8f60f4ac44739ab217af898ae16143681035b9648f2688ab6f",
	"pin-fp32.shard2.argograph": "a1ee3fa26d1eb0960828aed0ea0cf7b346523ecabaa33dfab9f0c438dcb70768",
	"pin-fp32.shard3.argograph": "e47eef27c025a2410a8c83ec0623050f21ee8e59e4429aa0d861675e5be92b08",
	"pin-fp16.shard0.argograph": "c0ec855ca67cb747367bf42365835231b1a9eee51101c1c67d87770bb18c5b66",
	"pin-fp16.shard1.argograph": "ddd7ae4032e17135bf124d5a68b6b4a91434dac44857669644dd83be78fe33da",
	"pin-fp16.shard2.argograph": "d2e1987f9f30cc7f899f554b8c8c5d24cde01490cd676a1894dd7f7ae1a2e2f2",
	"pin-fp16.shard3.argograph": "57bd7d15d3693356e22c3743ac01a083bd45daf002d865ab756a8c4ec633999e",
	// ConvertStore writes exactly what ConvertFeatures + Write does.
	"convert.fp32-to-fp16": "7f8738110507b75878f98321a0b8f3321cc8fc9b8249a78c0304526fdf990dc7",
}

// TestStoreBytesMatchPinnedParent rewrites the fp32 and fp16 stores of
// storeTestDataset, a 4-shard greedy set (seed 7) of each, and an
// fp32→fp16 ConvertStore output, and checks every file against its
// pinned digest.
func TestStoreBytesMatchPinnedParent(t *testing.T) {
	dir := t.TempDir()
	got := map[string]string{}
	digest := func(name string, b []byte) {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	readDigest := func(name, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		digest(name, b)
	}
	for _, dt := range []FeatDtype{DtypeF32, DtypeF16} {
		ds := storeTestDataset(t)
		if err := ds.ConvertFeatures(dt); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		digest("store."+dt.String(), buf.Bytes())
		_, paths, err := WriteShardSet(ds, dir, "pin-"+dt.String(), ShardOptions{K: 4, Partitioner: "greedy", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			readDigest(filepath.Base(p), p)
		}
	}
	src := filepath.Join(dir, "convert-src.argograph")
	if err := storeTestDataset(t).Save(src); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "convert-dst.argograph")
	if _, _, err := ConvertStore(src, dst, DtypeF16); err != nil {
		t.Fatal(err)
	}
	readDigest("convert.fp32-to-fp16", dst)

	for name, sum := range got {
		want, ok := pinnedStoreHashes[name]
		if !ok {
			t.Errorf("%s: no pinned digest (got %s)", name, sum)
		} else if sum != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, sum, want)
		}
	}
	if len(got) != len(pinnedStoreHashes) {
		t.Errorf("%d stores written, %d pinned", len(got), len(pinnedStoreHashes))
	}
}
