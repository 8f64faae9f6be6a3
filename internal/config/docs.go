package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BaseDocs holds the five required config documents of one directory. The
// chaos harness reads them once and assembles many simulations from them —
// same cluster, varied seeds and fault plans — without
// re-touching the filesystem per trial.
type BaseDocs struct {
	Machines []byte
	Services []byte
	Graph    []byte
	Paths    []byte
	Client   []byte
}

// ReadBase reads the five required documents from dir.
func ReadBase(dir string) (*BaseDocs, error) {
	docs, err := readBaseDocs(dir)
	if err != nil {
		return nil, err
	}
	return &BaseDocs{
		Machines: docs[0], Services: docs[1], Graph: docs[2],
		Paths: docs[3], Client: docs[4],
	}, nil
}

// Assemble builds a simulation from the documents plus an optional faults
// document, exactly like the package-level Assemble.
func (d *BaseDocs) Assemble(faultsJSON ...[]byte) (*Setup, error) {
	return Assemble(d.Machines, d.Services, d.Graph, d.Paths, d.Client, faultsJSON...)
}

// WithSeed returns a copy with the client document's seed replaced.
func (d *BaseDocs) WithSeed(seed uint64) (*BaseDocs, error) {
	var cf ClientFile
	if err := decodeStrict("client.json", d.Client, &cf); err != nil {
		return nil, err
	}
	cf.Seed = seed
	client, err := json.Marshal(&cf)
	if err != nil {
		return nil, fmt.Errorf("config: re-encoding client.json: %w", err)
	}
	out := *d
	out.Client = client
	return &out, nil
}

// HashDir fingerprints the complete configuration set of dir: the five
// required documents plus the optional faults.json and control.json. The
// farm journals this hash into every job spec so a spool can never be
// resumed against a drifted configuration without noticing — a result is
// only meaningful for the exact bytes it was computed from.
func HashDir(dir string) (string, error) {
	h := sha256.New()
	names := []string{
		"machines.json", "service.json", "graph.json", "path.json",
		"client.json", "faults.json", "control.json",
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			// The optional documents simply contribute their absence.
			fmt.Fprintf(h, "%s\x00absent\x00", name)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("config: hashing %s: %w", dir, err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
