package config

import (
	"fmt"
	"os"
	"time"

	"uqsim/internal/des"
	"uqsim/internal/workload"
)

// Overrides are the adjustments applied on top of a config directory. The
// zero value changes nothing.
type Overrides struct {
	// Faults names a faults.json that replaces the directory's; it must
	// exist.
	Faults string
	// Seed, when non-nil, replaces client.json's seed.
	Seed *uint64
	// QPS > 0 replaces the configured client load — open loop, closed
	// loop or sessions — with a constant open-loop rate.
	QPS float64
	// Warmup and Duration > 0 replace the configured run windows.
	Warmup, Duration time.Duration
	// Fidelity and SampleRate are applied by applyFidelity.
	Fidelity   string
	SampleRate float64
}

// Load reads the config directory dir and loads it with o. `uqsim run`
// and `uqsim trace` load through it.
func Load(dir string, o Overrides) (*Setup, error) {
	d, err := ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return d.Load(o)
}

// LoadDirWithFaults is Load with only a faults override, for the
// benchmark module.
func LoadDirWithFaults(dir, faultsPath string) (*Setup, error) {
	return Load(dir, Overrides{Faults: faultsPath})
}

// Load strictly decodes the documents, assembles the simulation and
// applies o. It is the only assembly path, so a document or an override
// means the same thing to every command: the faults document installs
// last in assembly, then control.json's plane attaches, then o's load,
// fidelity and windows apply.
func (d *Dir) Load(o Overrides) (*Setup, error) {
	faults := d.Faults
	if o.Faults != "" {
		var err error
		if faults, err = os.ReadFile(o.Faults); err != nil {
			return nil, fmt.Errorf("config: reading %s: %w", o.Faults, err)
		}
	}
	var (
		mf MachinesFile
		sf ServicesFile
		gf GraphFile
		pf PathsFile
		cf ClientFile
		ff *FaultsFile
	)
	docs := d.docs()
	for i, v := range [5]any{&mf, &sf, &gf, &pf, &cf} {
		if err := DecodeStrict(docNames[i], *docs[i], v); err != nil {
			return nil, err
		}
	}
	if faults != nil {
		ff = &FaultsFile{}
		if err := DecodeStrict("faults.json", faults, ff); err != nil {
			return nil, err
		}
	}
	if o.Seed != nil {
		cf.Seed = *o.Seed
	}
	setup, err := assemble(&mf, &sf, &gf, &pf, &cf, ff)
	if err != nil {
		return nil, err
	}
	if d.Control != nil {
		if setup.Plane, err = applyControl(setup.Sim, d.Control); err != nil {
			return nil, err
		}
	}
	if o.QPS > 0 {
		cc := setup.Sim.Client()
		cc.Pattern = workload.ConstantRate(o.QPS)
		cc.ClosedUsers = 0
		cc.Sessions = nil
		setup.Sim.SetClient(cc)
	}
	if err := applyFidelity(setup.Sim, o.Fidelity, o.SampleRate); err != nil {
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
