package config

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"uqsim/internal/validate"
)

// jsonString matches one JSON string token without escapes.
var jsonString = regexp.MustCompile(`"[^"\\]*"`)

// TestRelabelKeepsFingerprint checks that machine, rack and region names
// are labels only: renaming them through a bijection, one of which
// reverses their sorted order, leaves the run's fingerprint unchanged.
// twotier and threetier are left out because their machine names
// (frontend, cache) also name other things.
func TestRelabelKeepsFingerprint(t *testing.T) {
	for _, tc := range []struct {
		dir    string
		rename map[string]string
	}{
		{"metastable", map[string]string{"m0": "zz", "m1": "aa"}},
		{"robust", map[string]string{"m0": "m1", "m1": "m0"}},
		{"threeregion", map[string]string{
			"east-0": "n3", "east-1": "n0", "west-0": "n2", "eu-0": "n1",
			"rack-east": "zone",
			"east":      "r2", "west": "r0", "eu": "r1",
		}},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			src := filepath.Join("..", "..", "configs", tc.dir)
			dst := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			renamed := 0
			for _, e := range entries {
				if e.IsDir() {
					continue
				}
				b, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				b = jsonString.ReplaceAllFunc(b, func(tok []byte) []byte {
					if to, ok := tc.rename[string(tok[1:len(tok)-1])]; ok {
						renamed++
						return []byte(`"` + to + `"`)
					}
					return tok
				})
				if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if renamed < len(tc.rename) {
				t.Fatalf("rewrote %d name tokens, want at least one per name (%d)", renamed, len(tc.rename))
			}
			if got, want := runFingerprint(t, dst), runFingerprint(t, src); got != want {
				t.Fatalf("relabelled %s moved the fingerprint:\n got %s\nwant %s", tc.dir, got, want)
			}
		})
	}
}

func runFingerprint(t *testing.T, dir string) string {
	t.Helper()
	setup, err := Load(dir, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	return validate.Fingerprint(rep)
}
