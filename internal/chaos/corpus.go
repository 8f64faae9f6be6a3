package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"uqsim/internal/atomicfile"
	"uqsim/internal/config"
)

// Meta is the corpus entry's meta.json: everything a replay needs to
// reproduce and re-judge the finding. The fingerprint pins the exact
// simulation the original run observed — a replay whose fingerprint
// differs has diverged, even if it violates the same invariant.
type Meta struct {
	Seed        uint64   `json:"seed"`
	Trial       int      `json:"trial"`
	Violation   string   `json:"violation"`
	Detail      string   `json:"detail"`
	Events      int      `json:"events"`
	Labels      []string `json:"labels,omitempty"`
	Fingerprint string   `json:"fingerprint"`
}

// Entry is one corpus artifact in portable form: the entry directory's
// name plus the exact bytes of its two files. Findings cross process
// boundaries as Entries — a farm worker returns them over its result
// pipe and the dispatcher archives them — so the merged corpus of a
// distributed search is byte-identical to a serial one.
type Entry struct {
	Name   string          `json:"name"`
	Meta   json.RawMessage `json:"meta"`
	Faults json.RawMessage `json:"faults"`
}

// findingEntry renders a shrunk finding as its corpus artifact.
func findingEntry(f *Finding, faultsJSON []byte) (*Entry, error) {
	meta := Meta{
		Seed:        f.Seed,
		Trial:       f.Trial,
		Violation:   f.Violation,
		Detail:      f.Detail,
		Events:      f.Events,
		Labels:      f.Scenario.Labels(),
		Fingerprint: f.Fingerprint,
	}
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encoding meta.json: %w", err)
	}
	return &Entry{
		Name:   fmt.Sprintf("trial%04d-%s", f.Trial, f.Violation),
		Meta:   append(data, '\n'),
		Faults: faultsJSON,
	}, nil
}

// ArchiveEntry writes one entry as corpusDir/<name>/ holding faults.json
// (the materialized minimal schedule, merged with the config's base
// policies) and meta.json. Both files land atomically and meta.json is
// written last, so an interrupted flush can never leave an entry that
// Replay would pick up half-written. Both documents are
// re-indented canonically: an Entry that crossed a process boundary (a
// farm worker's result pipe, the spool journal) carries RawMessage bytes
// reformatted by the enclosing encoders, and the corpus must come out
// byte-identical either way.
func ArchiveEntry(corpusDir string, e *Entry) (string, error) {
	faults, err := canonicalJSON(e.Faults)
	if err != nil {
		return "", fmt.Errorf("chaos: corpus entry %s faults.json: %w", e.Name, err)
	}
	meta, err := canonicalJSON(e.Meta)
	if err != nil {
		return "", fmt.Errorf("chaos: corpus entry %s meta.json: %w", e.Name, err)
	}
	dir := filepath.Join(corpusDir, e.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: creating corpus entry: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, "faults.json"), faults); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, "meta.json"), append(meta, '\n')); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	return dir, nil
}

// canonicalJSON reformats a JSON document into the corpus's canonical
// two-space indentation, discarding whatever whitespace it arrived with.
func canonicalJSON(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(raw), "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReplayResult compares a corpus entry's recorded finding against a fresh
// run of its schedule.
type ReplayResult struct {
	Meta Meta
	// Violation and Fingerprint are the fresh run's observations.
	Violation   *Violation
	Fingerprint string
}

// Matches reports whether the replay reproduced the recorded finding
// exactly: same violation ID and bit-identical fingerprint.
func (r *ReplayResult) Matches() bool {
	return r.Violation != nil && r.Violation.ID == r.Meta.Violation &&
		r.Fingerprint == r.Meta.Fingerprint
}

// Replay re-runs a corpus entry's faults.json under its recorded seed
// against the given config directory and re-judges the invariants. The
// committed corpus is replayed in CI, so every archived chaos finding
// stays a live regression test.
func Replay(configDir, entryDir string) (*ReplayResult, error) {
	return ReplayWith(configDir, entryDir, "", 0)
}

// ReplayWith is Replay at an explicit fidelity (as config.Overrides.Fidelity):
// "hybrid" with sample rate 1.0 must still Match the recorded full-DES
// finding bit-for-bit (the inertness contract), while sampled rates
// re-judge the invariants — conservation in particular — on the hybrid
// tier's own books and are not expected to reproduce the fingerprint.
func ReplayWith(configDir, entryDir, fidelity string, sampleRate float64) (*ReplayResult, error) {
	metaData, err := os.ReadFile(filepath.Join(entryDir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var meta Meta
	if err := config.DecodeStrict(filepath.Join(entryDir, "meta.json"), metaData, &meta); err != nil {
		return nil, err
	}
	dir, err := config.ReadDir(configDir)
	if err != nil {
		return nil, err
	}
	h, err := NewHarness(dir, Options{ConfigDir: configDir, Fidelity: fidelity, SampleRate: sampleRate})
	if err != nil {
		return nil, err
	}
	// The entry's faults.json loads like a -faults override, so it is
	// decoded as strictly as any config document.
	entry, err := dir.Load(config.Overrides{Faults: filepath.Join(entryDir, "faults.json")})
	if err != nil {
		return nil, err
	}
	faultsJSON, err := encodeFaults(entry.Faults)
	if err != nil {
		return nil, err
	}
	v, fp, err := h.verifyFaults(meta.Seed, faultsJSON, entry.Faults)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Meta: meta, Violation: v, Fingerprint: fp}, nil
}

// encodeFaults marshals a fault plan the same way Materialize does.
func encodeFaults(ff *config.FaultsFile) ([]byte, error) {
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encoding faults.json: %w", err)
	}
	return data, nil
}
