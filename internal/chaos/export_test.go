package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Entries lists the complete corpus entries under dir, sorted by name.
// Directories without a meta.json (an interrupted flush) are skipped.
func Entries(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var out []string
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		entry := filepath.Join(dir, de.Name())
		if _, err := os.Stat(filepath.Join(entry, "meta.json")); err == nil {
			out = append(out, entry)
		}
	}
	sort.Strings(out)
	return out, nil
}
