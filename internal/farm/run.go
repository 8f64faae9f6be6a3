package farm

import (
	"fmt"

	"uqsim/internal/chaos"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
)

// Executor runs job specs in-process. Worker subprocesses wrap one in the
// stdin/stdout protocol loop; -replay uses one directly to re-run a
// quarantined spec under a debugger's eye.
type Executor struct {
	ConfigDir string
	hash      string
	// chaos harnesses are cached per (seed, maxActions): every trial of a
	// campaign shares one, and building it re-parses the config set.
	harnesses map[[2]uint64]*chaos.Harness
}

// NewExecutor hashes the configuration once; every job is checked against
// it so a spec journaled for different config bytes is refused, not run.
func NewExecutor(configDir string) (*Executor, error) {
	hash, err := config.HashDir(configDir)
	if err != nil {
		return nil, err
	}
	return &Executor{
		ConfigDir: configDir,
		hash:      hash,
		harnesses: make(map[[2]uint64]*chaos.Harness),
	}, nil
}

// Execute runs one job to its committed Result.
func (e *Executor) Execute(spec JobSpec) (*Result, error) {
	if spec.ConfigHash != e.hash {
		return nil, fmt.Errorf("farm: job %s was journaled for config %s but %s hashes to %s (configuration drifted mid-campaign?)",
			spec.Key(), spec.ConfigHash, e.ConfigDir, e.hash)
	}
	res := &Result{Hash: spec.Hash(), Job: spec}
	switch spec.Kind {
	case KindSweep:
		row, err := experiments.SweepRow(e.ConfigDir, spec.QPS, nil)
		if err != nil {
			return nil, err
		}
		res.Row = row
	case KindChaos:
		h, err := e.harness(spec)
		if err != nil {
			return nil, err
		}
		tr, err := h.Trial(spec.Index)
		if err != nil {
			return nil, err
		}
		out := &ChaosOutcome{Events: tr.Events}
		if tr.Finding != nil {
			out.Violation = tr.Finding.Violation
			out.Detail = tr.Finding.Detail
			out.EventsAfter = tr.Finding.Events
			out.Entry = tr.Entry
		}
		res.Chaos = out
	default:
		return nil, fmt.Errorf("farm: unknown job kind %q", spec.Kind)
	}
	return res, nil
}

func (e *Executor) harness(spec JobSpec) (*chaos.Harness, error) {
	key := [2]uint64{spec.Seed, uint64(spec.MaxActions)}
	if h, ok := e.harnesses[key]; ok {
		return h, nil
	}
	h, err := chaos.NewHarness(chaos.Options{
		ConfigDir:  e.ConfigDir,
		Seed:       spec.Seed,
		MaxActions: spec.MaxActions,
	})
	if err != nil {
		return nil, err
	}
	e.harnesses[key] = h
	return h, nil
}
