package config

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
)

const cfgDir = "../../configs/twotier"

func TestLoadDirTwoTier(t *testing.T) {
	setup, err := LoadDir(cfgDir)
	if err != nil {
		t.Fatal(err)
	}
	if setup.Warmup != 200*des.Millisecond || setup.Duration != des.Second {
		t.Fatalf("window %v + %v", setup.Warmup, setup.Duration)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	// 20k QPS is below the 8-proc capacity: goodput tracks offered load.
	if math.Abs(rep.GoodputQPS-20000)/20000 > 0.05 {
		t.Fatalf("goodput %v, want ≈20000", rep.GoodputQPS)
	}
	if rep.PerTier["nginx"] == nil || rep.PerTier["memcached"] == nil || rep.PerTier["netproc"] == nil {
		t.Fatal("per-tier histograms missing")
	}
	// Size sampler: exp mean 1KB must stay KB-scaled (not µs-scaled).
	if rep.Latency.P99() > 50*des.Millisecond {
		t.Fatalf("p99 %v implausible for 20k load", rep.Latency.P99())
	}
}

func TestLoadDirMissingFile(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("missing files should fail")
	}
}

// mutate loads the twotier config files, applies fn to the named doc, and
// assembles.
func mutate(t *testing.T, which string, fn func(map[string]any)) error {
	t.Helper()
	_, err := mutateSetup(t, map[string]func(map[string]any){which: fn})
	return err
}

// mutateSetup is mutate for several docs at once, returning the Setup so
// tests can run it.
func mutateSetup(t *testing.T, muts map[string]func(map[string]any)) (*Setup, error) {
	t.Helper()
	docs := map[string][]byte{}
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		b, err := os.ReadFile(filepath.Join(cfgDir, name))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = b
	}
	for which, fn := range muts {
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
	return Assemble(docs["machines.json"], docs["service.json"], docs["graph.json"],
		docs["path.json"], docs["client.json"])
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name  string
		which string
		fn    func(map[string]any)
	}{
		{"no machines", "machines.json", func(m map[string]any) { m["machines"] = []any{} }},
		{"zero cores", "machines.json", func(m map[string]any) {
			m["machines"].([]any)[0].(map[string]any)["cores"] = 0
		}},
		{"unknown deployed service", "graph.json", func(m map[string]any) {
			m["deployments"].([]any)[0].(map[string]any)["service"] = "ghost"
		}},
		{"bad lb", "graph.json", func(m map[string]any) {
			m["deployments"].([]any)[0].(map[string]any)["lb"] = "magic"
		}},
		{"bad model", "service.json", func(m map[string]any) {
			m["services"].([]any)[0].(map[string]any)["model"] = "quantum"
		}},
		{"bad queue type", "service.json", func(m map[string]any) {
			svc := m["services"].([]any)[0].(map[string]any)
			svc["stages"].([]any)[0].(map[string]any)["queue_type"] = "stack"
		}},
		{"no duration", "client.json", func(m map[string]any) { delete(m, "duration_s") }},
		{"no load source", "client.json", func(m map[string]any) { delete(m, "qps") }},
		{"bad process", "client.json", func(m map[string]any) { m["process"] = "bursty" }},
		{"unknown pool ref", "path.json", func(m map[string]any) {
			tree := m["trees"].([]any)[0].(map[string]any)
			tree["nodes"].([]any)[0].(map[string]any)["acquire"] = []any{"ghost"}
		}},
	}
	for _, c := range cases {
		if err := mutate(t, c.which, c.fn); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAssembleVariants(t *testing.T) {
	// Valid variants that exercise optional branches.
	ok := []struct {
		name  string
		which string
		fn    func(map[string]any)
	}{
		{"uniform arrivals", "client.json", func(m map[string]any) { m["process"] = "uniform" }},
		{"diurnal load", "client.json", func(m map[string]any) {
			delete(m, "qps")
			m["diurnal"] = map[string]any{"base": 5000.0, "amplitude": 2000.0, "period_s": 2.0}
		}},
		{"closed loop", "client.json", func(m map[string]any) {
			delete(m, "qps")
			m["closed_users"] = 8
			m["think"] = map[string]any{"type": "exponential", "mean_us": 100.0}
		}},
		{"least loaded", "graph.json", func(m map[string]any) {
			m["deployments"].([]any)[0].(map[string]any)["lb"] = "least_loaded"
		}},
		{"random lb", "graph.json", func(m map[string]any) {
			m["deployments"].([]any)[0].(map[string]any)["lb"] = "random"
		}},
		{"no network", "machines.json", func(m map[string]any) { delete(m, "network") }},
		{"machine pools", "machines.json", func(m map[string]any) {
			m["machines"].([]any)[0].(map[string]any)["pools"] = []any{
				map[string]any{"name": "disk", "capacity": 2},
			}
		}},
	}
	for _, c := range ok {
		if err := mutate(t, c.which, c.fn); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestBuildBlueprintThreaded(t *testing.T) {
	det40 := dist.Spec{Type: "deterministic", ValueUs: 40}
	exp4ms := dist.Spec{Type: "exponential", MeanUs: 4000}
	bp, err := buildBlueprint(&ServiceSpec{
		ServiceName: "mongo",
		Model:       "multi-threaded",
		Threads:     8,
		CtxSwitchUs: 3,
		Stages: []StageSpec{
			{StageName: "parse", PerJob: &det40},
			{StageName: "disk", PerJob: &exp4ms, Pool: "disk"},
		},
		Paths:     []PathSpec{{PathName: "mem", Stages: []int{0}}, {PathName: "disk", Stages: []int{0, 1}}},
		PathProbs: []float64{0.3, 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Threads != 8 || bp.CtxSwitch != 3*des.Microsecond {
		t.Fatal("threaded params")
	}
	if bp.Stages[1].PoolName != "disk" {
		t.Fatal("pool name")
	}
}

func TestLoadDirThreeTier(t *testing.T) {
	setup, err := LoadDir("../../configs/threetier")
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
	// MongoDB appears only on the miss path (≈30%).
	mongoShare := float64(rep.PerTier["mongodb"].Count()) / float64(rep.Completions)
	if mongoShare < 0.2 || mongoShare > 0.4 {
		t.Fatalf("mongodb share %v, want ≈0.3", mongoShare)
	}
	// Mongo residence must be ms-scale (disk path dominates at 70%).
	if rep.PerTier["mongodb"].Mean() < des.Millisecond {
		t.Fatalf("mongodb mean %v, want ms-scale", rep.PerTier["mongodb"].Mean())
	}
	// The 500ms patience never trips at 1k QPS.
	if rep.Timeouts != 0 {
		t.Fatalf("timeouts = %d", rep.Timeouts)
	}
}

func TestClientTimeoutValidation(t *testing.T) {
	if err := mutate(t, "client.json", func(m map[string]any) {
		m["timeout_ms"] = -5.0
	}); err == nil {
		t.Fatal("negative timeout should fail")
	}
	if err := mutate(t, "client.json", func(m map[string]any) {
		m["max_retries"] = 2
	}); err == nil {
		t.Fatal("retries without timeout should fail")
	}
	if err := mutate(t, "client.json", func(m map[string]any) {
		m["timeout_ms"] = 100.0
		m["max_retries"] = 2
	}); err != nil {
		t.Fatalf("valid timeout config rejected: %v", err)
	}
}

// TestEngineKeyRemoved: a machines.json that still has the "engine"
// section of the deleted parallel engine fails with the reason, whatever
// the section holds.
func TestEngineKeyRemoved(t *testing.T) {
	const want = `config: machines.json: "engine" was removed (the parallel engine is gone); scale out with uqsim farm`
	for _, engine := range []any{map[string]any{"workers": 4}, map[string]any{}} {
		err := mutate(t, "machines.json", func(m map[string]any) { m["engine"] = engine })
		if err == nil || err.Error() != want {
			t.Errorf("engine %v: error %v, want %q", engine, err, want)
		}
	}
}

// TestUnknownFieldSuggestion: a typo'd key anywhere in a document should
// name the offending field and suggest the nearest schema field.
func TestUnknownFieldSuggestion(t *testing.T) {
	cases := []struct {
		name string
		fn   func(map[string]any)
		want string
	}{
		{"nested wan field", func(m map[string]any) {
			m["topology"] = map[string]any{"wan": map[string]any{"latncy_ms": 5}}
		}, `did you mean "latency_ms"`},
		{"top-level field", func(m map[string]any) {
			m["machinez"] = []any{}
		}, `did you mean "machines"`},
	}
	for _, c := range cases {
		err := mutate(t, "machines.json", c.fn)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
}
