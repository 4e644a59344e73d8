package platform

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A successful write leaves exactly the new file, readable by others
// (0644); a failed one returns the writer's error, leaves the old file
// as it was and removes its temporary sibling.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.argograph")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("first")); err != nil {
		t.Fatal(err)
	}
	errWrite := errors.New("writer failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		write("partial")(w)
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("after a failed write the file reads %q, %v; want the first write", got, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Fatalf("file mode %v, want 0644", perm)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the written file", len(entries))
	}
}
