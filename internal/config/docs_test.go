package config

import (
	"path/filepath"
	"testing"
)

// TestHashPinned: Dir.Hash of every shipped config directory keeps the
// value the farm journaled before Dir existed, so spools written then
// still -resume. The corpus under configs/metastable is not part of the
// directory's hash.
func TestHashPinned(t *testing.T) {
	for name, want := range map[string]string{
		"metastable":  "d0a1ad1ad60fe9a812166c824cebc601",
		"robust":      "4b9777eb70c0db95be52d8c48d115987",
		"threeregion": "149ae3d8a378edf492c8ffcee9edf55c",
		"threetier":   "16c7f8412cbf3d1af7326644889d03b3",
		"twotier":     "23b3d671529b1f189ab602e414b7c50e",
	} {
		path := filepath.Join("..", "..", "configs", name)
		d, err := ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Hash(); got != want {
			t.Errorf("%s: Hash %s, want %s", name, got, want)
		}
		if got, err := HashDir(path); err != nil || got != want {
			t.Errorf("%s: HashDir %s (%v), want %s", name, got, err, want)
		}
	}
}
