package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplaces: the target ends up holding exactly the new bytes and
// no temp file is left beside it.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	for _, data := range []string{"first\n", "second, longer\n"} {
		if err := Write(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	assertOnly(t, dir, "out.csv")
}

// TestWriteFailedRenameLeavesNoTemp: when the rename fails (the target is
// a directory) the error is reported and the temp file removed.
func TestWriteFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taken")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("x")); err == nil {
		t.Fatal("Write over a directory succeeded")
	}
	assertOnly(t, dir, "taken")
}

func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
