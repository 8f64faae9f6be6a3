// Package atomicfile writes files that are never seen half-written: the
// data goes to a temp file in the target's directory, which is renamed
// over the target once complete. A kill mid-write leaves either the old
// content or the new, plus at most a stray ".tmp-*" file that readers
// skip.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write atomically replaces path with data. The directory must exist. On
// any failure the temp file is removed. Errors carry no package prefix;
// callers add their own.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
