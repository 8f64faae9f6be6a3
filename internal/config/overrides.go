package config

import (
	"time"

	"uqsim/internal/des"
	"uqsim/internal/workload"
)

// Overrides are the command-line adjustments applied on top of a config
// directory. The zero value changes nothing.
type Overrides struct {
	// Faults names a faults.json that replaces <dir>/faults.json; it must
	// exist.
	Faults string
	// QPS > 0 replaces the configured client load — open loop, closed
	// loop or sessions — with a constant open-loop rate.
	QPS float64
	// Warmup and Duration > 0 replace the configured run windows.
	Warmup, Duration time.Duration
	// Fidelity and SampleRate are applied by ApplyFidelity.
	Fidelity   string
	SampleRate float64
}

// Load assembles the simulation in dir and applies o. `uqsim run`,
// `uqsim trace` and every sweep point (serial or farmed) load through it,
// so an override means the same thing wherever it is accepted.
func Load(dir string, o Overrides) (*Setup, error) {
	var setup *Setup
	var err error
	if o.Faults != "" {
		setup, err = LoadDirWithFaults(dir, o.Faults)
	} else {
		setup, err = LoadDir(dir)
	}
	if err != nil {
		return nil, err
	}
	if o.QPS > 0 {
		cc := setup.Sim.Client()
		cc.Pattern = workload.ConstantRate(o.QPS)
		cc.ClosedUsers = 0
		cc.Sessions = nil
		setup.Sim.SetClient(cc)
	}
	if err := ApplyFidelity(setup.Sim, o.Fidelity, o.SampleRate); err != nil {
		return nil, err
	}
	if o.Warmup > 0 {
		setup.Warmup = des.FromDuration(o.Warmup)
	}
	if o.Duration > 0 {
		setup.Duration = des.FromDuration(o.Duration)
	}
	return setup, nil
}
