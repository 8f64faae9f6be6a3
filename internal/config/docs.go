package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// Dir is one config directory as read from disk: the bytes of its five
// required documents and of the optional faults.json and control.json
// (nil when absent). ReadDir is the only code that opens the directory,
// Hash digests exactly the bytes the Dir holds, and Load is the only way
// from those bytes to a simulation — so whatever hashes a Dir and runs it
// runs the bytes it hashed, even if the directory changes in between.
type Dir struct {
	Machines, Services, Graph, Paths, Client []byte
	Faults, Control                          []byte
}

// docNames names the documents of a Dir, in docs() and hash order.
var docNames = [7]string{
	"machines.json", "service.json", "graph.json", "path.json",
	"client.json", "faults.json", "control.json",
}

// docs points at the Dir's documents in docNames order; the last two are
// optional.
func (d *Dir) docs() [7]*[]byte {
	return [7]*[]byte{&d.Machines, &d.Services, &d.Graph, &d.Paths, &d.Client, &d.Faults, &d.Control}
}

// ReadDir reads the config directory at path once.
func ReadDir(path string) (*Dir, error) {
	d := &Dir{}
	for i, doc := range d.docs() {
		b, err := os.ReadFile(filepath.Join(path, docNames[i]))
		if i >= 5 && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("config: reading %s: %w", docNames[i], err)
		}
		*doc = b
	}
	return d, nil
}

// Hash fingerprints the complete configuration set: the five required
// documents plus the optional ones, which contribute their absence. The
// farm journals this hash into every job spec so a spool can never be
// resumed against a drifted configuration without noticing — a result is
// only meaningful for the exact bytes it was computed from.
func (d *Dir) Hash() string {
	h := sha256.New()
	for i, doc := range d.docs() {
		if *doc == nil {
			fmt.Fprintf(h, "%s\x00absent\x00", docNames[i])
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", docNames[i], len(*doc))
		h.Write(*doc)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// HashDir is ReadDir(dir).Hash(), for the benchmark module.
func HashDir(dir string) (string, error) {
	d, err := ReadDir(dir)
	if err != nil {
		return "", err
	}
	return d.Hash(), nil
}
