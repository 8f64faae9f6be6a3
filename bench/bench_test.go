package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"uqsim/internal/config"
	"uqsim/internal/des"
)

// tiny shrinks every simulated window and unit-cost loop so a whole run
// takes milliseconds.
const tiny = 0.01

func tinyOptions(t *testing.T, traced bool) options {
	return options{seed: 1, seconds: 0.001, traced: traced, scale: tiny, tmp: t.TempDir()}
}

func TestResilientDirFollowsSeed(t *testing.T) {
	write := func(seed, repSeed uint64) (dir, hash string) {
		dir = t.TempDir()
		if err := writeResilientDir(dir, seed, repSeed, des.Second/2, 24*des.Second); err != nil {
			t.Fatal(err)
		}
		hash, err := config.HashDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return dir, hash
	}
	dir, a := write(7, 7001)
	_, b := write(7, 7001)
	if a != b {
		t.Fatalf("equal seeds gave different directories: %s vs %s", a, b)
	}
	if _, c := write(8, 7001); c == a {
		t.Fatal("a different benchmark seed gave the same fault schedule")
	}
	if _, c := write(7, 7002); c == a {
		t.Fatal("a different rep seed gave the same client.json")
	}
	if _, err := config.LoadDirWithFaults(dir, filepath.Join(dir, "faults.json")); err != nil {
		t.Fatalf("generated directory does not load: %v", err)
	}
}

// benchmarkJSON mirrors /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 30,
		EndToEnd: endToEndDefs, PerLayer: perLayerDefs,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadDecl{w.name, w.why})
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the harness's declarations; it should read:\n%s", text)
	}
}

// TestEveryWorkloadRunsAndEmitsItsMetrics runs each workload end to end at
// a sliver of its size: every rep must pass the correctness gate and the
// run must emit exactly the declared end-to-end set.
func TestEveryWorkloadRunsAndEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(w, tinyOptions(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.RunsFailed != 0 || res.RunsAttempted != 1+minReps {
			t.Fatalf("%s: %d of %d runs failed: %v", w.name, res.RunsFailed, res.RunsAttempted, res.Failures)
		}
		if err := finish(res.Metrics, defsFor(false)); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if (res.Metrics[accuracyDef.Name].Value == unvalidated) != (w.referenceP99 == nil) {
			t.Errorf("%s: p99_err_pct %v does not match its reference", w.name, res.Metrics[accuracyDef.Name].Value)
		}
	}
}

func TestTracedRunEmitsThePerLayerSet(t *testing.T) {
	w, err := workloadByName("resilient")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(w, tinyOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.RunsFailed != 0 {
		t.Fatalf("%d runs failed: %v", res.RunsFailed, res.Failures)
	}
	if err := finish(res.Metrics, perLayerDefs); err != nil {
		t.Fatal(err)
	}
	if res.Metrics["config.load_ms"].Value <= 0 || res.Metrics["sim.run_ms"].Value <= 0 {
		t.Error("spans around config.LoadDirWithFaults and Sim.Run recorded no time")
	}
	// workload > rep > {build, sim.run, verify}: every span but the root
	// has a parent that encloses it.
	for i, s := range res.Spans {
		if s.Parent < 0 {
			if s.Name != "workload" {
				t.Errorf("span %d %s has no parent", i, s.Name)
			}
			continue
		}
		p := res.Spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d, %d] escapes its parent %s [%d, %d]", i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	fixture := []struct {
		stack []string
		value int64
		layer string
	}{
		{[]string{"uqsim/internal/des.(*EventQueue).Pop", "uqsim/internal/des.(*Engine).Step", "uqsim/internal/sim.(*Sim).Run"}, 30, "des"},
		{[]string{"math.Log", "uqsim/internal/dist.Exponential.Sample", "uqsim/internal/service.(*Instance).start"}, 10, "dist"},
		{[]string{"runtime.memmove", "uqsim/internal/queueing.(*FIFO).Push"}, 5, "queueing"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "uqsim/internal/job.(*Factory).NewJob"}, 20, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "uqsim/internal/job.(*Factory).Clone"}, 8, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 12, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, 3, "runtime.other"},
		{[]string{"uqsim/internal/monitor.(*Monitor).tick"}, 2, "other"},
		{[]string{"uqsim/internal/sim.(*Sim).dispatch.func1", "uqsim/internal/des.(*Engine).Step"}, 9, "sim"},
		{[]string{"main.runRep"}, 1, "other"},
	}
	var samples []stackSample
	want := map[string]float64{}
	for _, f := range fixture {
		if got := layerOf(f.stack); got != f.layer {
			t.Errorf("layerOf(%v) = %s, want %s", f.stack, got, f.layer)
		}
		samples = append(samples, stackSample{f.stack, f.value})
		want[f.layer] += float64(f.value) / 100
	}
	shares, total := layerShares(samples)
	if total != 100 {
		t.Fatalf("total %d, want 100", total)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if len(shares) != len(cpuLayers) || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%d shares sum to %v, want %d summing to 1", len(shares), sum, len(cpuLayers))
	}
}

// TestParseProfileReadsRuntimeProfile decodes a profile the Go runtime
// really wrote: a busy loop must show up under this test's name.
func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 150*time.Millisecond; {
		x = math.Sqrt(x + 2)
	}
	sink += x
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.Contains(fn, "TestParseProfileReadsRuntimeProfile") && s.value > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample names this test among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	m := summarize([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if m.Q1 != 2.75 || m.Value != 5.5 || m.Q3 != 8.25 || m.Min != 1 || m.Max != 10 || m.N != 10 {
		t.Fatalf("got %+v", m)
	}
	if f := fastest([]float64{3, 1, 2}); f.Value != 1 || f.Median != 2 {
		t.Fatalf("fastest reported %v (median %v), want the minimum 1 beside the median 2", f.Value, f.Median)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if m := summarize([]float64{4, 1, 2}); m.Q1 != 1 || m.Q3 != 4 {
		t.Fatalf("got %+v", m)
	}
}

func TestCompareClassifies(t *testing.T) {
	// Each metric's samples: a tight base, then three changes.
	tight := func(v float64) *metric { return summarize([]float64{v * 0.995, v, v, v, v * 1.005}) }
	noisy := func(v float64) *metric { return summarize([]float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2}) }
	for _, c := range []struct {
		name string
		a, b *metric
		want string
	}{
		{"within", tight(100), tight(104), within},
		{"improved", tight(100), tight(50), within},
		{"outside", tight(100), tight(115), outside},
		{"unresolved", tight(100), noisy(101), unresolved},
		{"outside beats unresolved", noisy(100), noisy(130), outside},
	} {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	file := func(wall, errPct float64) *resultFile {
		m := map[string]*metric{accuracyDef.Name: single(errPct)}
		for _, d := range endToEndDefs {
			m[d.Name] = tight(10)
		}
		m["wall_ms_per_sim_s"] = tight(wall)
		return &resultFile{Workloads: []*workloadResult{{Name: "fanout", Metrics: m, Fingerprint: "f"}}}
	}
	for _, c := range []struct {
		name        string
		a, b        *resultFile
		wantOutside int
	}{
		{"same", file(100, 3.2), file(100, 3.2), 0},
		{"slower", file(100, 3.2), file(130, 3.2), 1},
		{"less accurate", file(100, 3.2), file(100, 5.3), 1},
		{"both", file(100, 3.2), file(130, 5.3), 2},
		{"more accurate", file(100, 3.2), file(100, 1.1), 0},
	} {
		var out bytes.Buffer
		n, err := compareResults(&out, c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.wantOutside {
			t.Errorf("%s: %d pairs outside, want %d\n%s", c.name, n, c.wantOutside, out.String())
		}
	}
	if _, err := compareResults(&bytes.Buffer{}, file(1, 1), &resultFile{}); err == nil {
		t.Error("a file missing a workload compared without error")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "fanout", "--seed", "1", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "fanout", "--seed", "1", "--seconds", "20", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if got := normalizeArgs([]string{"-trace", "-out", "t.json"}); !reflect.DeepEqual(got, []string{"-trace", "-out", "t.json"}) {
		t.Fatalf("a bare -trace was rewritten: %v", got)
	}
}
