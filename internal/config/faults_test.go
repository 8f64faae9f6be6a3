package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// twotierDocs reads the five base config documents.
func twotierDocs(t *testing.T) map[string][]byte {
	t.Helper()
	docs := map[string][]byte{}
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		b, err := os.ReadFile(filepath.Join(cfgDir, name))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = b
	}
	return docs
}

func assembleWithFaults(t *testing.T, faults string) (*Setup, error) {
	t.Helper()
	docs := twotierDocs(t)
	docs["faults.json"] = []byte(faults)
	return docsDir(docs).Load(Overrides{})
}

// Unknown JSON keys must be rejected with an error naming the file and the
// offending key, for every config document.
func TestUnknownKeyRejected(t *testing.T) {
	docs := twotierDocs(t)
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		var m map[string]any
		if err := json.Unmarshal(docs[name], &m); err != nil {
			t.Fatal(err)
		}
		m["bogus_knob"] = 7
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		bad := map[string][]byte{}
		for k, v := range docs {
			bad[k] = v
		}
		bad[name] = b
		_, err = docsDir(bad).Load(Overrides{})
		if err == nil {
			t.Errorf("%s: unknown key accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "bogus_knob") {
			t.Errorf("%s: error should name the file and the key: %v", name, err)
		}
	}
	// Nested unknown keys are rejected too.
	if err := mutate(t, "machines.json", func(m map[string]any) {
		m["machines"].([]any)[0].(map[string]any)["gpu_count"] = 4
	}); err == nil || !strings.Contains(err.Error(), "gpu_count") {
		t.Errorf("nested unknown key: %v", err)
	}
	// faults.json is strict as well.
	if _, err := assembleWithFaults(t, `{"chaos": true}`); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("faults.json unknown key: %v", err)
	}
}

func TestFaultsJSONRoundTrip(t *testing.T) {
	setup, err := assembleWithFaults(t, `{
		"policies": [
			{"service": "memcached", "timeout_ms": 50, "max_retries": 2,
			 "backoff_base_ms": 1, "backoff_jitter": 0.5,
			 "breaker": {"error_threshold": 0.9, "window": 50, "cooldown_ms": 20}},
			{"tree": "get", "node": 1, "service": "memcached",
			 "timeout_ms": 40, "max_retries": 3, "backoff_base_ms": 1}
		],
		"shedding": [{"service": "nginx", "max_queue": 10000}],
		"events": [
			{"at_s": 0.5, "kind": "kill_instance", "service": "memcached", "instance": 0},
			{"at_s": 0.55, "kind": "restart_instance", "service": "memcached"},
			{"at_s": 0.7, "kind": "edge_latency", "service": "memcached",
			 "extra_ms": 0.2, "until_s": 0.8},
			{"at_s": 0.9, "kind": "degrade_freq", "machine": "cache", "freq_mhz": 1300}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	// The 50ms memcached outage must show up in the error counters: attempts
	// against the down instance drop and get retried.
	ec := rep.Errors["memcached"]
	if ec == nil || ec.Dropped == 0 || ec.Retries == 0 {
		t.Fatalf("memcached errors %+v, want drops + retries from the kill window", ec)
	}
	if rep.Retries == 0 {
		t.Fatal("no policy retries counted")
	}
	total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped + uint64(rep.InFlight)
	if rep.Arrivals != total {
		t.Fatalf("conservation: arrivals %d != %d", rep.Arrivals, total)
	}
}

func TestLoadDirReadsFaultsJSON(t *testing.T) {
	dir := t.TempDir()
	for name, b := range twotierDocs(t) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	faults := `{"events": [{"at_s": 0.5, "kind": "kill_instance", "service": "memcached"}]}`
	if err := os.WriteFile(filepath.Join(dir, "faults.json"), []byte(faults), 0o644); err != nil {
		t.Fatal(err)
	}
	setup, err := Load(dir, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	// No policy guards the edge, so the kill turns requests into drops.
	if rep.Dropped == 0 {
		t.Fatal("kill_instance from faults.json had no effect")
	}
}

// TestShippedFaultsLoad: every committed faults.json — the shipped config
// directories and every chaos corpus entry — loads under the current
// validation.
func TestShippedFaultsLoad(t *testing.T) {
	for _, dir := range []string{"robust", "metastable", "threeregion"} {
		if _, err := Load(filepath.Join("..", "..", "configs", dir), Overrides{}); err != nil {
			t.Errorf("configs/%s: %v", dir, err)
		}
	}
	entries, err := filepath.Glob(filepath.Join("..", "..", "configs", "*", "corpus", "*", "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found")
	}
	for _, faults := range entries {
		// entry → corpus → config directory.
		dir := filepath.Dir(filepath.Dir(filepath.Dir(faults)))
		if _, err := Load(dir, Overrides{Faults: faults}); err != nil {
			t.Errorf("%s: %v", faults, err)
		}
	}
}

func TestFaultsJSONErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown kind", `{"events": [{"at_s": 1, "kind": "meteor_strike", "machine": "cache"}]}`, "meteor_strike"},
		{"unknown machine", `{"events": [{"at_s": 1, "kind": "crash_machine", "machine": "ghost"}]}`, "ghost"},
		{"unknown service", `{"events": [{"at_s": 1, "kind": "kill_instance", "service": "ghost"}]}`, "ghost"},
		{"instance out of range", `{"events": [{"at_s": 1, "kind": "kill_instance", "service": "memcached", "instance": 5}]}`, "instance"},
		{"policy without target", `{"policies": [{"timeout_ms": 10}]}`, "service or a tree"},
		{"tree without node", `{"policies": [{"tree": "get", "timeout_ms": 10}]}`, "needs a node"},
		{"node without tree", `{"policies": [{"service": "memcached", "node": 1, "timeout_ms": 10}]}`, "needs a tree"},
		{"unknown policy service", `{"policies": [{"service": "ghost", "timeout_ms": 10}]}`, "ghost"},
		{"unknown policy tree", `{"policies": [{"tree": "ghost", "node": 0, "timeout_ms": 10}]}`, "ghost"},
		{"retries without timeout", `{"policies": [{"service": "memcached", "max_retries": 2}]}`, "timeout"},
		{"shed unknown service", `{"shedding": [{"service": "ghost", "max_queue": 10}]}`, "ghost"},
		{"negative max queue", `{"shedding": [{"service": "nginx", "max_queue": -1}]}`, "negative"},
		{"degrade until at at", `{"events": [{"at_s": 1, "until_s": 1, "kind": "degrade_freq", "machine": "cache", "freq_mhz": 1300}]}`, "not after"},
		{"degrade until before at", `{"events": [{"at_s": 1, "until_s": 0.5, "kind": "degrade_freq", "machine": "cache", "freq_mhz": 1300}]}`, "not after"},
		{"until on a crash", `{"events": [{"at_s": 1, "until_s": 2, "kind": "crash_machine", "machine": "cache"}]}`, "recover_machine"},
		{"until on a kill", `{"events": [{"at_s": 1, "until_s": 2, "kind": "kill_instance", "service": "memcached"}]}`, "restart_instance"},
		{"until on a recovery", `{"events": [{"at_s": 1, "until_s": 2, "kind": "recover_machine", "machine": "cache"}]}`, "takes no until"},
		{"until on a restart", `{"events": [{"at_s": 1, "until_s": 2, "kind": "restart_instance", "service": "memcached"}]}`, "takes no until"},
		{"partition under events", `{"events": [{"at_s": 1, "kind": "partition"}]}`, "network section"},
		{"set_link under events", `{"events": [{"at_s": 1, "kind": "SET_LINK"}]}`, "network section"},
	}
	for _, c := range cases {
		_, err := assembleWithFaults(t, c.doc)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q should mention %q", c.name, err, c.want)
		}
	}
}
