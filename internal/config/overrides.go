package config

import (
	"fmt"
	"os"
	"time"
)

// Overrides are the adjustments applied on top of a config directory, one
// per command-line flag. The zero value changes nothing. Each is applied
// where the client.json field it replaces is read, after the document's
// own value has been validated, and is rejected the way that value is:
// the error names the flag.
type Overrides struct {
	// Faults names a faults.json that replaces the directory's; it must
	// exist.
	Faults string
	// Seed, when non-nil, replaces client.json's seed.
	Seed *uint64
	// QPS, when non-zero, replaces the configured client load — open
	// loop, closed loop or sessions — with a constant open-loop rate.
	QPS float64
	// Warmup and Duration, when non-zero, replace warmup_s and
	// duration_s.
	Warmup, Duration time.Duration
	// Fidelity ("full" or "hybrid") replaces the fidelity mode, and
	// SampleRate, when non-zero, the hybrid sample rate; a hybrid
	// document keeps its hybrid_epoch_ms.
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

// Load strictly decodes the documents and assembles the simulation with
// o. It is the only assembly path, so a document or an override means the
// same thing to every command: o applies inside assembly, the faults
// document installs last in it, then control.json's plane attaches.
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
	setup, err := assemble(&mf, &sf, &gf, &pf, &cf, ff, &o)
	if err != nil {
		return nil, err
	}
	if d.Control != nil {
		if setup.Plane, err = applyControl(setup.Sim, d.Control); err != nil {
			return nil, err
		}
	}
	return setup, nil
}
