package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uqsim/internal/sim"
)

// TestQPSOverrideKeepsLoadStep: a load_step fault scales the client that
// runs, including the constant-rate client a QPS override installs after
// the fault plan.
func TestQPSOverrideKeepsLoadStep(t *testing.T) {
	faults := filepath.Join(t.TempDir(), "faults.json")
	doc := `{"events": [{"at_s": 0, "kind": "load_step", "factor": 2, "until_s": 10}]}`
	if err := os.WriteFile(faults, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	offered := func(o Overrides) float64 {
		t.Helper()
		setup, err := Load(cfgDir, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := setup.Sim.Run(setup.Warmup, setup.Duration)
		if err != nil {
			t.Fatal(err)
		}
		return rep.OfferedQPS
	}
	o := Overrides{QPS: 2000, Warmup: 10 * time.Millisecond, Duration: 500 * time.Millisecond}
	plain := offered(o)
	o.Faults = faults
	stepped := offered(o)
	if r := stepped / plain; r < 1.8 || r > 2.2 {
		t.Fatalf("offered %.0f QPS with the load step, %.0f without: ratio %.2f, want about 2", stepped, plain, r)
	}

	// The check runs against the client that runs: a closed-loop client
	// installed after the fault plan cannot take a load step.
	setup, err := Load(cfgDir, o)
	if err != nil {
		t.Fatal(err)
	}
	setup.Sim.SetClient(sim.ClientConfig{ClosedUsers: 4})
	if _, err := setup.Sim.Run(setup.Warmup, setup.Duration); err == nil || !strings.Contains(err.Error(), "needs an open-loop client") {
		t.Fatalf("closed-loop client with a load step: Run error %v, want one naming the open-loop client", err)
	}
}
