package config

import (
	"fmt"
	"strings"

	"uqsim/internal/hybrid"
	"uqsim/internal/sim"
)

// applyFidelity applies CLI-style -fidelity/-sample-rate overrides to an
// assembled simulation: "full" clears any configured hybrid split,
// "hybrid" installs one (sample rate defaults to the config's, else 0.01),
// and a bare sample-rate override retunes an already-hybrid setup.
func applyFidelity(s *sim.Sim, fidelity string, sampleRate float64) error {
	switch strings.ToLower(fidelity) {
	case "":
		if sampleRate == 0 {
			return nil
		}
		hc := s.HybridConfig()
		if hc == nil {
			return fmt.Errorf("-sample-rate requires -fidelity hybrid or a hybrid config")
		}
		c := *hc
		c.SampleRate = sampleRate
		if err := c.Validate(); err != nil {
			return err
		}
		s.SetHybrid(c)
	case "full":
		if sampleRate != 0 {
			return fmt.Errorf("-sample-rate conflicts with -fidelity full")
		}
		s.ClearHybrid()
	case "hybrid":
		var c hybrid.Config
		if hc := s.HybridConfig(); hc != nil {
			c = *hc
		}
		if sampleRate != 0 {
			c.SampleRate = sampleRate
		}
		if c.SampleRate == 0 {
			c.SampleRate = 0.01
		}
		if err := c.Validate(); err != nil {
			return err
		}
		s.SetHybrid(c)
	default:
		return fmt.Errorf("unknown fidelity %q (want \"full\" or \"hybrid\")", fidelity)
	}
	return nil
}
