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

// Out-of-range size and split flags are refused by name before any
// dataset is built, instead of being silently replaced by a default.
func TestOutOfRangeFlagsAreRefused(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "e.csv")
	if err := os.WriteFile(edges, []byte("0,1\n1,2\n2,3\n3,4\n4,5\n5,6\n6,7\n7,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		run  func(out string) error
	}{
		{"-nodes", func(out string) error { return runGen([]string{"-dataset", "tiny", "-nodes", "-5", "-o", out}) }},
		{"-edges", func(out string) error { return runGen([]string{"-dataset", "tiny", "-edges", "-1", "-o", out}) }},
		{"-feat", func(out string) error { return runGen([]string{"-dataset", "tiny", "-feat", "-3", "-o", out}) }},
		{"-feat", func(out string) error { return runImport([]string{edges, "-feat", "0", "-o", out}) }},
		{"-classes", func(out string) error { return runImport([]string{edges, "-classes", "1", "-o", out}) }},
		{"-train-frac", func(out string) error { return runImport([]string{edges, "-train-frac", "1.5", "-o", out}) }},
		{"-train-frac", func(out string) error { return runImport([]string{edges, "-train-frac", "0", "-o", out}) }},
		{"-train-frac", func(out string) error { return runImport([]string{edges, "-train-frac", "1", "-o", out}) }},
	} {
		out := filepath.Join(dir, "out.argograph")
		err := tc.run(out)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s out of range: error %v, want one naming %s", tc.flag, err, tc.flag)
		}
		if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
			t.Errorf("%s out of range: a store was written anyway (%v)", tc.flag, statErr)
			os.Remove(out)
		}
	}
}
