package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// assembleMutated applies fn to one base document, then assembles with an
// optional faults.json, returning the setup or error.
func assembleMutated(t *testing.T, which string, fn func(map[string]any), faults string) (*Setup, error) {
	t.Helper()
	docs := twotierDocs(t)
	if fn != nil {
		var m map[string]any
		if err := json.Unmarshal(docs[which], &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		docs[which] = b
	}
	if faults != "" {
		docs["faults.json"] = []byte(faults)
	}
	return docsDir(docs).Load(Overrides{})
}

// TestOverloadConfigRoundTrip wires every new overload knob through JSON:
// a client budget, a hedge on the memcached edge (two instances so a
// backup has somewhere to go), and a CoDel queue discipline.
func TestOverloadConfigRoundTrip(t *testing.T) {
	setup, err := assembleMutated(t, "graph.json", func(m map[string]any) {
		// Second memcached instance so hedges can race.
		dep := m["deployments"].([]any)[1].(map[string]any)
		inst := dep["instances"].([]any)[0].(map[string]any)
		dep["instances"] = []any{inst,
			map[string]any{"machine": inst["machine"], "cores": inst["cores"]}}
	}, `{
		"policies": [
			{"service": "memcached", "timeout_ms": 50,
			 "hedge": {"delay_ms": 0.05, "jitter": 0.2}}
		],
		"queues": [
			{"service": "nginx", "kind": "codel", "target_ms": 2, "interval_ms": 50}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := setup.Sim.Client()
	if cfg.Budget != nil {
		t.Fatal("no budget configured yet")
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	if rep.HedgesIssued == 0 {
		t.Fatal("hedge policy from faults.json never fired")
	}
	total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
		rep.DeadlineExpired + uint64(rep.InFlight)
	if rep.Arrivals != total {
		t.Fatalf("conservation: arrivals %d != %d", rep.Arrivals, total)
	}
}

// TestClientBudgetWiring: budget_ms and a budget spec both produce a
// sampler; tight budgets visibly expire requests.
func TestClientBudgetWiring(t *testing.T) {
	setup, err := assembleMutated(t, "client.json", func(m map[string]any) {
		m["budget_ms"] = 0.05 // 50µs: tighter than the service chain
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if setup.Sim.Client().Budget == nil {
		t.Fatal("budget_ms did not configure a budget sampler")
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineExpired == 0 {
		t.Fatal("a 50µs budget should expire requests")
	}
	setup, err = assembleMutated(t, "client.json", func(m map[string]any) {
		m["budget"] = map[string]any{"type": "uniform", "lo_us": 5000, "hi_us": 50000}
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if setup.Sim.Client().Budget == nil {
		t.Fatal("budget spec did not configure a sampler")
	}
}

func TestOverloadConfigErrors(t *testing.T) {
	clientCases := []struct {
		name, want string
		fn         func(map[string]any)
	}{
		{"budget and budget_ms", "mutually exclusive", func(m map[string]any) {
			m["budget_ms"] = 10
			m["budget"] = map[string]any{"type": "deterministic", "value_us": 10}
		}},
		{"negative budget_ms", "non-negative", func(m map[string]any) {
			m["budget_ms"] = -1
		}},
		{"bad budget spec", "budget", func(m map[string]any) {
			m["budget"] = map[string]any{"type": "exponential", "mean_us": -5}
		}},
	}
	for _, c := range clientCases {
		_, err := assembleMutated(t, "client.json", c.fn, "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v should mention %q", c.name, err, c.want)
		}
	}
	faultCases := []struct {
		name, doc, want string
	}{
		{"unknown queue kind", `{"queues": [{"service": "nginx", "kind": "srpt"}]}`, "srpt"},
		{"queue unknown service", `{"queues": [{"service": "ghost", "kind": "codel"}]}`, "ghost"},
		{"negative target", `{"queues": [{"service": "nginx", "kind": "codel", "target_ms": -1}]}`, "target"},
		{"hedge without trigger", `{"policies": [{"service": "memcached", "hedge": {}}]}`, "hedge"},
		{"hedge bad quantile", `{"policies": [{"service": "memcached", "hedge": {"quantile": 1.5}}]}`, "quantile"},
	}
	for _, c := range faultCases {
		_, err := assembleWithFaults(t, c.doc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v should mention %q", c.name, err, c.want)
		}
	}
}

// TestUnknownServiceDidYouMean: a typo'd service reference must name the
// file, the key, and the nearest deployed service.
func TestUnknownServiceDidYouMean(t *testing.T) {
	cases := []struct {
		name, doc, key string
	}{
		{"policy", `{"policies": [{"service": "memcachd", "timeout_ms": 10}]}`, "policies[0].service"},
		{"shedding", `{"shedding": [{"service": "ngnix", "max_queue": 10}]}`, "shedding[0].service"},
		{"queue", `{"queues": [{"service": "memcache", "kind": "codel"}]}`, "queues[0].service"},
		{"event", `{"events": [{"at_s": 1, "kind": "kill_instance", "service": "Memcached2"}]}`, "events[0].service"},
		{"event kind", `{"events": [{"at_s": 1, "kind": "crash_machin", "machine": "cache"}]}`, "events[0].kind"},
		{"event machine", `{"events": [{"at_s": 1, "kind": "crash_machine", "machine": "cahce"}]}`, "events[0].machine"},
		{"partition machine", `{"network": {"partitions": [{"at_s": 1, "group_a": ["frontend"], "group_b": ["cach"]}]}}`, "network.partitions[0].group_b[0]"},
	}
	for _, c := range cases {
		_, err := assembleWithFaults(t, c.doc)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "faults.json") || !strings.Contains(msg, c.key) {
			t.Errorf("%s: error %q should name faults.json and key %s", c.name, msg, c.key)
		}
		if !strings.Contains(msg, "did you mean") {
			t.Errorf("%s: error %q should suggest the closest service", c.name, msg)
		}
	}
	// Domains resolve against machines.json topology, so the domain case
	// runs on a config that declares some.
	faults := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(faults, []byte(`{"events": [
		{"at_s": 0.3, "kind": "crash_domain", "domain": "eats"},
		{"at_s": 0.6, "kind": "recover_domain", "domain": "east"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load("../../configs/threeregion", Overrides{Faults: faults})
	if err == nil || !strings.Contains(err.Error(), "events[0].domain") ||
		!strings.Contains(err.Error(), `did you mean "east"`) {
		t.Errorf("domain typo: %v", err)
	}
	// A name nothing like any service lists the valid ones instead of
	// guessing.
	_, err = assembleWithFaults(t, `{"policies": [{"service": "zzzzzzzzzz", "timeout_ms": 10}]}`)
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off name should not produce a suggestion: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "memcached") {
		t.Errorf("far-off name should list deployed services: %v", err)
	}
	// graph.json gets the same treatment against declared blueprints.
	_, err = assembleMutated(t, "graph.json", func(m map[string]any) {
		m["deployments"].([]any)[0].(map[string]any)["service"] = "ngink"
	}, "")
	if err == nil || !strings.Contains(err.Error(), "did you mean") ||
		!strings.Contains(err.Error(), "nginx") {
		t.Errorf("graph.json typo: %v", err)
	}
}
