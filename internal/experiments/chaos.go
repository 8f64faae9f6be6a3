package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uqsim/internal/chaos"
	"uqsim/internal/config"
	"uqsim/internal/fault"
)

// chaosConfigDir locates configs/metastable whether the caller runs from
// the repo root (the binaries) or from a package directory (go test).
func chaosConfigDir() (string, error) { return configDir("metastable") }

// configDir locates configs/<name> from the repo root or a package
// directory.
func configDir(name string) (string, error) {
	for _, dir := range []string{
		filepath.Join("configs", name),
		filepath.Join("..", "..", "configs", name),
	} {
		if _, err := os.Stat(filepath.Join(dir, "client.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("experiments: configs/%s not found from %s", name, cwd())
}

func cwd() string {
	d, err := os.Getwd()
	if err != nil {
		return "?"
	}
	return d
}

// Chaos demonstrates the chaos-search pipeline end to end on the
// metastable two-tier config: a noisy hand-built schedule — the real
// killer (a partition between the tiers) buried among harmless decoy
// faults — is checked against the invariant battery, the violation is
// delta-debugged down to the minimal reproducing schedule, and the
// minimum is re-verified to confirm it reproduces the identical
// violation. The same pipeline runs generatively in `uqsim chaos`;
// this experiment pins the canonical seeded scenario so the find → check
// → shrink → replay story is itself a regression-tested result.
func Chaos(o Opts) (*Table, error) {
	dir, err := chaosConfigDir()
	if err != nil {
		return nil, err
	}
	cfg, err := config.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	h, err := chaos.NewHarness(cfg, chaos.Options{ConfigDir: dir})
	if err != nil {
		return nil, err
	}

	// The noisy scenario: one real fault (the partition that ignites the
	// retry storm) plus three decoys mild enough to pass every invariant
	// on their own.
	noisy := chaos.Scenario{
		Seed: o.Seed,
		Actions: []chaos.Action{
			{
				Label: "edge latency backend +2ms (decoy)",
				Events: []config.FaultEventSpec{
					{AtS: 0.6, Kind: fault.EdgeLatency.String(), Service: "backend", ExtraMs: 2, UntilS: 1.0},
				},
			},
			{
				Label: "partition m0|m1 (the killer)",
				Partitions: []config.PartitionSpec{
					{AtS: 0.8, UntilS: 1.2, GroupA: []string{"m0"}, GroupB: []string{"m1"}},
				},
			},
			{
				Label: "load ×1.1 (decoy)",
				Events: []config.FaultEventSpec{
					{AtS: 0.5, Kind: fault.LoadStep.String(), Factor: 1.1, UntilS: 0.9},
				},
			},
			{
				Label: "gray link dup 5% (decoy)",
				Links: []config.LinkSpec{
					{AtS: 1.0, UntilS: 1.4, Src: "m1", Dst: "m0", Dup: 0.05},
				},
			},
		},
	}

	t := NewTable("Chaos search: find, shrink, replay (metastable two-tier)",
		"step", "events", "violation", "detail")
	t.Note = "seeded retry-storm metastability; shrinking must isolate the partition from the decoys"

	v, _, err := h.Verify(noisy)
	if err != nil {
		return nil, err
	}
	if v == nil {
		t.Add("find", fmt.Sprint(noisy.EventCount()), "none", "noisy scenario unexpectedly passed")
		return t, nil
	}
	t.Add("find", fmt.Sprint(noisy.EventCount()), v.ID, v.Detail)

	min, err := h.Shrink(noisy, v.ID)
	if err != nil {
		return nil, err
	}
	minV, fp, err := h.Verify(min)
	if err != nil {
		return nil, err
	}
	if minV == nil {
		return nil, fmt.Errorf("experiments: shrunk chaos scenario no longer reproduces %s", v.ID)
	}
	t.Add("shrink", fmt.Sprint(min.EventCount()), minV.ID, strings.Join(min.Labels(), ", "))

	// Replay: verifying the minimum again must reproduce the identical
	// simulation — same violation, bit-identical fingerprint.
	v2, fp2, err := h.Verify(min)
	if err != nil {
		return nil, err
	}
	replay := "fingerprint reproduces bit-identically"
	if v2 == nil || v2.ID != minV.ID || fp2 != fp {
		replay = "MISMATCH: replay diverged"
	}
	t.Add("replay", fmt.Sprint(min.EventCount()), minV.ID, replay)
	return t, nil
}
