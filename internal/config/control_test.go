package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uqsim/internal/des"
)

// writeTwotier materializes the twotier base docs plus any extra documents
// into a temp dir.
func writeTwotier(t *testing.T, extra map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range twotierDocs(t) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, doc := range extra {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadDirReadsControlJSON: a full control.json round-trips through
// LoadDir into an attached plane that acts during the run — the injected
// kill is detected and failed over, and the ejection observer is wired.
func TestLoadDirReadsControlJSON(t *testing.T) {
	dir := writeTwotier(t, map[string]string{
		"faults.json": `{"events": [
			{"at_s": 0.5, "kind": "kill_instance", "service": "memcached", "instance": 0}
		]}`,
		"control.json": `{
			"services": ["nginx", "memcached"],
			"heartbeat": {"period_ms": 10, "jitter": 0.2, "phi_threshold": 8, "min_samples": 3},
			"ejection": {"interval_ms": 100, "failure_ratio": 0.5, "quantile": 0.95,
			             "min_requests": 10, "min_healthy_fraction": 0.5, "probation_ms": 300},
			"failover": {"restart_delay_ms": 50, "machines": ["frontend", "cache"]},
			"autoscale": [{"service": "nginx", "min": 1, "max": 2,
			               "target_utilization": 0.7, "interval_ms": 100}]
		}`,
	})
	setup, err := Load(dir, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if setup.Plane == nil {
		t.Fatal("control.json present but no plane attached")
	}
	if setup.Sim.OnCallResult == nil {
		t.Fatal("ejection configured but call observer not wired")
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	st := setup.Plane.Stats()
	if st.Detections == 0 || st.Failovers == 0 {
		t.Fatalf("kill at 0.5s not detected/failed over: %s", st.Fingerprint())
	}
	if lag := st.DetectionLagTotal / des.Time(st.Detections); lag <= 0 || lag > 200*des.Millisecond {
		t.Fatalf("detection lag %v implausible", lag)
	}
}

// TestControlJSONErrors: strict decoding and name validation with
// did-you-mean suggestions for both services and machines.
func TestControlJSONErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field",
			`{"heartbeat": {"period_msec": 10}}`,
			"unknown field"},
		{"service typo",
			`{"services": ["memcachd"], "heartbeat": {}}`,
			`unknown service "memcachd" (did you mean "memcached"?)`},
		{"autoscale service typo",
			`{"autoscale": [{"service": "ngins", "max": 2, "target_utilization": 0.5}]}`,
			`unknown service "ngins" (did you mean "nginx"?)`},
		{"failover machine typo",
			`{"heartbeat": {}, "failover": {"machines": ["cachee"]}}`,
			`unknown machine "cachee" (did you mean "cache"?)`},
		{"autoscale machine typo",
			`{"autoscale": [{"service": "nginx", "max": 2, "target_utilization": 0.5,
			                 "machines": ["frontnd"]}]}`,
			`unknown machine "frontnd" (did you mean "frontend"?)`},
		{"empty config",
			`{}`,
			"empty config"},
		{"failover without detector",
			`{"failover": {"restart_delay_ms": 50}}`,
			"failover requires a detector"},
		{"both autoscale targets",
			`{"autoscale": [{"service": "nginx", "max": 2,
			                 "target_utilization": 0.5, "target_queue": 4}]}`,
			"exactly one of"},
	}
	for _, tc := range cases {
		dir := writeTwotier(t, map[string]string{"control.json": tc.doc})
		_, err := Load(dir, Overrides{})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadDirWithoutControlJSON: the file stays optional.
func TestLoadDirWithoutControlJSON(t *testing.T) {
	setup, err := Load(cfgDir, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if setup.Plane != nil {
		t.Fatal("no control.json, but a plane was attached")
	}
}
