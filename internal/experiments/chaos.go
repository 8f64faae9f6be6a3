package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uqsim/internal/chaos"
	"uqsim/internal/config"
	"uqsim/internal/fault"
)

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
	wd, _ := os.Getwd() // only named in the error
	return "", fmt.Errorf("experiments: configs/%s not found from %s", name, wd)
}

// chaosSearch demonstrates the chaos-search pipeline end to end on the
// metastable two-tier config: a noisy hand-built schedule — the real
// killer (a partition between the tiers) buried among harmless decoy
// faults — is checked against the invariant battery, the violation is
// delta-debugged down to the minimal reproducing schedule, and the
// minimum is re-verified to confirm it reproduces the identical
// violation. The same pipeline runs generatively in `uqsim chaos`;
// this experiment pins the canonical seeded scenario so the find → check
// → shrink → replay story is itself a regression-tested result. The
// pipeline is one function cell: its runs are the harness's own.
var chaosSearch = Spec{
	Cells: func(o Opts) []Cell {
		return []Cell{{Label: []string{"find-shrink-replay"}, Func: func(ctx context.Context) (any, error) { return chaosPipeline(ctx, o.Seed) }}}
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Chaos search: find, shrink, replay (metastable two-tier)",
			"step", "events", "violation", "detail")
		t.Note = "seeded retry-storm metastability; shrinking must isolate the partition from the decoys"
		for _, row := range rs[0].Value.([][]string) {
			t.Add(row...)
		}
		return t, nil
	},
}

// chaosPipeline verifies, shrinks and replays the noisy scenario, one
// row per step.
func chaosPipeline(ctx context.Context, seed uint64) ([][]string, error) {
	path, err := configDir("metastable")
	if err != nil {
		return nil, err
	}
	dir, err := config.ReadDir(path)
	if err != nil {
		return nil, err
	}
	h, err := chaos.NewHarness(ctx, dir, chaos.Options{ConfigDir: path})
	if err != nil {
		return nil, err
	}

	// The noisy scenario: one real fault (the partition that ignites the
	// retry storm) plus three decoys mild enough to pass every invariant
	// on their own.
	noisy := chaos.Scenario{
		Seed: seed,
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

	v, _, err := h.Verify(noisy)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return [][]string{{"find", fmt.Sprint(noisy.EventCount()), "none", "noisy scenario unexpectedly passed"}}, nil
	}
	find := []string{"find", fmt.Sprint(noisy.EventCount()), v.ID, v.Detail}

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
	return [][]string{
		find,
		{"shrink", fmt.Sprint(min.EventCount()), minV.ID, strings.Join(min.Labels(), ", ")},
		{"replay", fmt.Sprint(min.EventCount()), minV.ID, replay},
	}, nil
}
