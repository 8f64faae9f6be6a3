package config

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uqsim/internal/sim"
	"uqsim/internal/validate"
)

// TestQPSOverrideKeepsLoadStep: a load_step fault scales the client that
// runs, including the constant-rate client a QPS override puts in place of
// the document's load.
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

// clientDir is the two-tier directory with each edit applied to its
// client.json in turn.
func clientDir(t *testing.T, edits ...func(map[string]any)) *Dir {
	t.Helper()
	d, err := ReadDir(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(d.Client, &m); err != nil {
		t.Fatal(err)
	}
	for _, edit := range edits {
		edit(m)
	}
	if d.Client, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return d
}

// runPrint loads d under o, runs it and prints what the run produced: the
// fingerprint plus the fluid tier's traffic and epoch count, which the
// fingerprint leaves out.
func runPrint(t *testing.T, d *Dir, o Overrides) string {
	t.Helper()
	setup, err := d.Load(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s bg=%d epochs=%d rate=%v", validate.Fingerprint(rep),
		rep.BackgroundArrivals, rep.FluidWork.Epochs, rep.SampleRate)
}

// TestOverrideIsDocumentEdit: every override loads the simulation that
// the same value written into client.json loads, and an override the
// document cannot express fails to load.
func TestOverrideIsDocumentEdit(t *testing.T) {
	short := func(m map[string]any) {
		m["qps"] = 4000.0
		m["warmup_s"] = 0.02
		m["duration_s"] = 0.1
	}
	closed := func(m map[string]any) {
		delete(m, "qps")
		m["closed_users"] = 20.0
		m["think"] = map[string]any{"type": "exponential", "mean_us": 2000.0}
	}
	sessions := func(m map[string]any) {
		delete(m, "qps")
		m["sessions"] = sessionsDoc()
	}
	hybridEpoch := func(m map[string]any) {
		m["fidelity"] = "hybrid"
		m["sample_rate"] = 0.25
		m["hybrid_epoch_ms"] = 7.0
	}
	openAt := func(qps float64) func(map[string]any) {
		return func(m map[string]any) {
			delete(m, "closed_users")
			delete(m, "think")
			delete(m, "sessions")
			m["qps"] = qps
		}
	}
	for _, c := range []struct {
		name       string
		base, edit func(map[string]any)
		o          Overrides
	}{
		{"qps on open loop", nil, openAt(6000), Overrides{QPS: 6000}},
		{"qps on closed loop", closed, openAt(6000), Overrides{QPS: 6000}},
		{"qps on sessions", sessions, openAt(6000), Overrides{QPS: 6000}},
		{"fidelity hybrid", nil, func(m map[string]any) { m["fidelity"] = "hybrid" }, Overrides{Fidelity: "hybrid"}},
		{"fidelity hybrid with sample rate", nil, func(m map[string]any) {
			m["fidelity"] = "hybrid"
			m["sample_rate"] = 0.5
		}, Overrides{Fidelity: "HYBRID", SampleRate: 0.5}},
		{"sample rate on a hybrid document keeps its epoch", hybridEpoch, func(m map[string]any) {
			m["sample_rate"] = 0.5
		}, Overrides{SampleRate: 0.5}},
		{"fidelity full on a hybrid document", hybridEpoch, func(m map[string]any) {
			delete(m, "fidelity")
			delete(m, "sample_rate")
			delete(m, "hybrid_epoch_ms")
		}, Overrides{Fidelity: "full"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := []func(map[string]any){short}
			if c.base != nil {
				base = append(base, c.base)
			}
			got := runPrint(t, clientDir(t, base...), c.o)
			want := runPrint(t, clientDir(t, append(base, c.edit)...), Overrides{})
			if got != want {
				t.Fatalf("override %+v:\n  %s\nclient.json edit:\n  %s", c.o, got, want)
			}
		})
	}

	for _, c := range []struct {
		name string
		base func(map[string]any)
		o    Overrides
		want string
	}{
		{"sample rate on a full document", nil, Overrides{SampleRate: 0.5}, "-sample-rate"},
		{"sample rate with fidelity full", hybridEpoch, Overrides{Fidelity: "full", SampleRate: 0.5}, "-sample-rate"},
		{"unknown fidelity", nil, Overrides{Fidelity: "hybird"}, `"hybird"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			edits := []func(map[string]any){short}
			if c.base != nil {
				edits = append(edits, c.base)
			}
			if _, err := clientDir(t, edits...).Load(c.o); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("override %+v: error %v, want one naming %s", c.o, err, c.want)
			}
		})
	}
}

// TestRejectsWindowsAndClientOutOfRange: a run window, a connection count
// or a retry count that would run with a silently wrong number fails to
// load, and so does a flag with the same value; the error names the
// client.json key or the flag.
func TestRejectsWindowsAndClientOutOfRange(t *testing.T) {
	set := func(key string, v float64) func(map[string]any) {
		return func(m map[string]any) { m[key] = v }
	}
	for _, c := range []struct {
		name string
		edit func(map[string]any)
		o    Overrides
		want string
	}{
		{"negative warmup_s", set("warmup_s", -0.5), Overrides{}, "warmup_s"},
		{"duration_s past the clock", set("duration_s", 1e10), Overrides{}, "warmup_s + duration_s"},
		{"warmup_s past the clock", set("warmup_s", 9.3e9), Overrides{}, "warmup_s + duration_s"},
		{"negative connections", set("connections", -7), Overrides{}, "connections"},
		{"negative max_retries", func(m map[string]any) {
			m["timeout_ms"] = 10.0
			m["max_retries"] = -1.0
		}, Overrides{}, "max_retries"},
		{"negative -qps", nil, Overrides{QPS: -5}, "-qps"},
		{"NaN -qps", nil, Overrides{QPS: math.NaN()}, "-qps"},
		{"negative -warmup", nil, Overrides{Warmup: -time.Second}, "-warmup"},
		{"negative -duration", nil, Overrides{Duration: -time.Second}, "-duration"},
		{"-warmup and -duration past the clock", nil, Overrides{Warmup: math.MaxInt64 - time.Second, Duration: 2 * time.Second}, "-duration"},
		{"-duration past the clock after warmup_s", nil, Overrides{Duration: math.MaxInt64}, "-duration"},
		{"misspelled -fidelity", nil, Overrides{Fidelity: "hybird"}, `-fidelity: unknown fidelity mode "hybird" (did you mean "hybrid"?)`},
		{"-sample-rate out of range", nil, Overrides{Fidelity: "hybrid", SampleRate: 2}, "-sample-rate"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var edits []func(map[string]any)
			if c.edit != nil {
				edits = append(edits, c.edit)
			}
			if _, err := clientDir(t, edits...).Load(c.o); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one naming %s", err, c.want)
			}
		})
	}
}
