package platform

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes path through write: the bytes go to a temporary
// sibling, which is renamed into place only once write and the close
// succeed, so a reader never observes a torn file. The file gets
// ordinary 0644 permissions, not CreateTemp's 0600: stores and
// checkpoints are shared artifacts. On failure the temporary file is
// removed. The file is not fsynced.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
