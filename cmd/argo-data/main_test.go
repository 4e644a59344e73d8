package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/graph"
)

const goldenV1 = "../../internal/graph/testdata/golden-v1.argograph"

func genTiny(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.argograph")
	if err := runGen([]string{"-dataset", "tiny", "-seed", "3", "-o", path}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenVerifyInspectRoundTrip(t *testing.T) {
	path := genTiny(t)
	if err := runVerify([]string{path}); err != nil {
		t.Fatalf("verify of a fresh store: %v", err)
	}
	if err := runInspect([]string{path}); err != nil {
		t.Fatalf("inspect of a fresh store: %v", err)
	}
	// The store on disk is the profile's build, not merely a valid file.
	got, err := graph.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Name != "tiny" || got.Graph.NumNodes != got.Spec.ScaledNodes {
		t.Fatalf("stored %q with %d nodes, spec says %d", got.Spec.Name, got.Graph.NumNodes, got.Spec.ScaledNodes)
	}
	if err := runGen([]string{"-dataset", "tiny"}); err == nil {
		t.Fatal("gen without -o accepted")
	}
}

func TestVerifyAndInspectRejectV1Store(t *testing.T) {
	for name, run := range map[string]func([]string) error{"verify": runVerify, "inspect": runInspect} {
		err := run([]string{goldenV1})
		if !errors.Is(err, graph.ErrUnsupportedVersion) {
			t.Errorf("%s on a v1 store: %v, want ErrUnsupportedVersion", name, err)
		}
	}
}

func TestVerifyCatchesFlippedPayloadByte(t *testing.T) {
	path := genTiny(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{path}); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify of a store with one flipped payload byte: %v", err)
	}
	// inspect reads the metadata sections only, so it still answers.
	if err := runInspect([]string{path}); err != nil {
		t.Fatalf("inspect touched the damaged payload: %v", err)
	}
}
