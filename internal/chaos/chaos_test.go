package chaos

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uqsim/internal/config"
	"uqsim/internal/rng"
)

const metastableDir = "../../configs/metastable"

// The committed corpus under configs/metastable/corpus is a live
// regression suite: every archived finding must still reproduce — same
// violation, bit-identical fingerprint — on today's code.
func TestReplayCommittedCorpus(t *testing.T) {
	entries, err := Entries(filepath.Join(metastableDir, "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("committed corpus is empty; expected at least one entry")
	}
	for _, entry := range entries {
		t.Run(filepath.Base(entry), func(t *testing.T) {
			res, err := Replay(context.Background(), metastableDir, entry)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("replay found no violation; recorded %q", res.Meta.Violation)
			}
			if res.Violation.ID != res.Meta.Violation {
				t.Fatalf("replay violation %q, recorded %q", res.Violation.ID, res.Meta.Violation)
			}
			if res.Fingerprint != res.Meta.Fingerprint {
				t.Fatalf("replay fingerprint diverged:\n  recorded: %s\n  replayed: %s",
					res.Meta.Fingerprint, res.Fingerprint)
			}
			if !res.Matches() {
				t.Fatal("Matches() false despite matching parts")
			}
			if res.Meta.Events > 8 {
				t.Fatalf("committed repro has %d events; shrinking should have reached ≤ 8", res.Meta.Events)
			}
		})
	}
}

// A fresh search on the metastable config must rediscover the seeded
// retry-storm metastability, shrink it, and emit a corpus entry that
// replays to the identical finding.
func TestSearchFindsShrinksAndArchives(t *testing.T) {
	corpus := t.TempDir()
	res, err := Run(context.Background(), Options{
		ConfigDir: metastableDir,
		Seed:      1,
		Trials:    2,
		CorpusDir: corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("unexpected interruption")
	}
	if len(res.Findings) == 0 {
		t.Fatal("search found no violations on the known-bad config")
	}
	for _, f := range res.Findings {
		if f.Violation != "recovery-goodput" {
			t.Errorf("trial %d: violation %q, want recovery-goodput", f.Trial, f.Violation)
		}
		if f.Events > 8 {
			t.Errorf("trial %d: shrunk to %d events, want ≤ 8", f.Trial, f.Events)
		}
		if f.Events > f.EventsBefore {
			t.Errorf("trial %d: shrinking grew the schedule (%d → %d)", f.Trial, f.EventsBefore, f.Events)
		}
		rr, err := Replay(context.Background(), metastableDir, f.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Matches() {
			t.Errorf("trial %d: archived entry does not replay to the recorded finding", f.Trial)
		}
	}
}

// The no-fault scenario must pass every invariant — otherwise the search
// would "find" violations that are really baseline misconfiguration.
func TestEmptyScenarioPasses(t *testing.T) {
	h := newTestHarness(t)
	v, fp, err := h.Verify(Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("empty scenario violates %v", v)
	}
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
}

// The same master seed must generate the same scenarios: the search is
// reproducible end to end.
func TestGenerateDeterministic(t *testing.T) {
	h := newTestHarness(t)
	gen := func() []string {
		child := rng.NewSplitter(7).Child("chaos", "0")
		sc := h.Generate(child.Stream("schedule"), child.Stream("seed").Uint64())
		return sc.Labels()
	}
	a, b := gen(), gen()
	if len(a) == 0 {
		t.Fatal("generator produced no actions")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// Every generated fault must heal inside the run, leaving a measurable
// recovery window — otherwise the recovery invariants silently disarm.
func TestGeneratedScenariosHeal(t *testing.T) {
	h := newTestHarness(t)
	split := rng.NewSplitter(3)
	for trial := 0; trial < 20; trial++ {
		child := split.Child("chaos", string(rune('a'+trial)))
		sc := h.Generate(child.Stream("schedule"), child.Stream("seed").Uint64())
		_, ff, err := h.Materialize(sc)
		if err != nil {
			t.Fatal(err)
		}
		lastHealS, ok := h.healAnalysis(ff)
		if !ok {
			t.Fatalf("trial %d generated a never-healing schedule: %v", trial, sc.Labels())
		}
		if lastHealS > 0.65*h.horizonS+1e-9 {
			t.Fatalf("trial %d heals at %.2fs, past the 0.65·horizon deadline", trial, lastHealS)
		}
	}
}

func TestHealAnalysis(t *testing.T) {
	h := newTestHarness(t)
	cases := []struct {
		name     string
		ff       config.FaultsFile
		wantOK   bool
		wantHeal float64
	}{
		{name: "empty", ff: config.FaultsFile{}, wantOK: false},
		{
			name: "crash without recover",
			ff: config.FaultsFile{Events: []config.FaultEventSpec{
				{AtS: 1, Kind: "crash_machine", Machine: "m0"},
			}},
			wantOK: false,
		},
		{
			name: "crash recover pair",
			ff: config.FaultsFile{Events: []config.FaultEventSpec{
				{AtS: 1, Kind: "crash_machine", Machine: "m0"},
				{AtS: 1.5, Kind: "recover_machine", Machine: "m0"},
			}},
			wantOK: true, wantHeal: 1.5,
		},
		{
			name: "permanent window",
			ff: config.FaultsFile{Events: []config.FaultEventSpec{
				{AtS: 1, Kind: "load_step", Factor: 2},
			}},
			wantOK: false,
		},
		{
			name: "windowed heals at until",
			ff: config.FaultsFile{Events: []config.FaultEventSpec{
				{AtS: 1, Kind: "edge_latency", Service: "backend", ExtraMs: 2, UntilS: 2.25},
			}},
			wantOK: true, wantHeal: 2.25,
		},
		{
			name: "unhealed partition",
			ff: config.FaultsFile{Network: &config.NetFaultSpec{
				Partitions: []config.PartitionSpec{{AtS: 1, GroupA: []string{"m0"}, GroupB: []string{"m1"}}},
			}},
			wantOK: false,
		},
		{
			name: "healed partition",
			ff: config.FaultsFile{Network: &config.NetFaultSpec{
				Partitions: []config.PartitionSpec{{AtS: 1, UntilS: 1.75, GroupA: []string{"m0"}, GroupB: []string{"m1"}}},
			}},
			wantOK: true, wantHeal: 1.75,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			heal, ok := h.healAnalysis(&tc.ff)
			if ok != tc.wantOK {
				t.Fatalf("ok=%v, want %v", ok, tc.wantOK)
			}
			if ok && heal != tc.wantHeal {
				t.Fatalf("heal=%v, want %v", heal, tc.wantHeal)
			}
		})
	}
}

// ddmin plumbing: split must partition and complements must invert it.
func TestSplitComplements(t *testing.T) {
	actions := []Action{{Label: "a"}, {Label: "b"}, {Label: "c"}, {Label: "d"}, {Label: "e"}}
	for n := 2; n <= len(actions); n++ {
		chunks := split(actions, n)
		if len(chunks) != n {
			t.Fatalf("split(%d) returned %d chunks", n, len(chunks))
		}
		total := 0
		for i, c := range chunks {
			total += len(c)
			comp := complements(actions, chunks)[i]
			if len(c)+len(comp) != len(actions) {
				t.Fatalf("chunk %d/%d: |chunk|+|complement| = %d+%d ≠ %d", i, n, len(c), len(comp), len(actions))
			}
		}
		if total != len(actions) {
			t.Fatalf("split(%d) covers %d actions, want %d", n, total, len(actions))
		}
	}
}

// A context already cancelled must stop the search before any trial runs
// and mark the result partial.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Options{
		ConfigDir: metastableDir,
		Seed:      1,
		Trials:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("result not marked interrupted")
	}
	if res.Trials != 0 {
		t.Fatalf("%d trials ran despite interruption", res.Trials)
	}
}

// Entries must skip half-written artifacts: a directory is only a corpus
// entry once its meta.json (written last) exists.
func TestEntriesSkipsIncomplete(t *testing.T) {
	dir := t.TempDir()
	complete := filepath.Join(dir, "trial0000-drain")
	partial := filepath.Join(dir, "trial0001-drain")
	for _, d := range []string{complete, partial} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "faults.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(complete, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Entries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != complete {
		t.Fatalf("Entries = %v, want just %s", entries, complete)
	}
	// A missing corpus dir is an empty corpus, not an error.
	none, err := Entries(filepath.Join(dir, "missing"))
	if err != nil || len(none) != 0 {
		t.Fatalf("missing dir: entries=%v err=%v", none, err)
	}
}

// Closed-loop configs never drain; the harness must refuse them up front.
func TestRejectsClosedLoop(t *testing.T) {
	dir := readDir(t, metastableDir)
	dir.Client = []byte(`{"seed":1,"closed_users":10,"think":{"type":"deterministic","value_us":1000},"duration_s":1}`)
	if _, err := NewHarness(context.Background(), dir, Options{}); err == nil || !strings.Contains(err.Error(), "closed-loop") {
		t.Fatalf("closed-loop config: NewHarness error %v, want one naming the closed-loop client", err)
	}
}

// TestRejectsWhatRunRejects: a search fails with config's own error on a
// directory `uqsim run` refuses — here a misspelled key in the base
// faults.json — instead of searching a configuration nobody wrote.
func TestRejectsWhatRunRejects(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"machines.json", "service.json", "graph.json", "path.json", "client.json"} {
		data, err := os.ReadFile(filepath.Join(metastableDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	faults := `{"policies":[{"service":"backend","timeout_ms":40,"max_retries":6}],
		"shedding":[{"service":"backend","max_queu":50}]}`
	if err := os.WriteFile(filepath.Join(dir, "faults.json"), []byte(faults), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := config.Load(dir, config.Overrides{})
	if want == nil || !strings.Contains(want.Error(), `unknown field "max_queu"`) {
		t.Fatalf("config.Load: %v, want the unknown-field error", want)
	}
	_, err := Run(context.Background(), Options{ConfigDir: dir, Seed: 1, Trials: 1})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("chaos.Run: %v, want config's error %q", err, want)
	}
}

// TestReplayRejectsMisspelledMeta: a corpus entry whose meta.json misspells
// a key fails the replay with config's unknown-field error. Read leniently,
// "seeed" dropped the recorded seed, and the replay ran under seed 0 and
// reported that the finding no longer reproduces.
func TestReplayRejectsMisspelledMeta(t *testing.T) {
	src := filepath.Join(metastableDir, "corpus", "trial0000-recovery-goodput")
	entry := t.TempDir()
	for _, name := range []string{"faults.json", "meta.json"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "meta.json" {
			if !strings.Contains(string(data), `"seed":`) {
				t.Fatalf("%s has no seed key", name)
			}
			data = []byte(strings.Replace(string(data), `"seed":`, `"seeed":`, 1))
		}
		if err := os.WriteFile(filepath.Join(entry, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Replay(context.Background(), metastableDir, entry)
	want := `unknown field "seeed" (did you mean "seed"?)`
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "meta.json") {
		t.Fatalf("Replay: %v, want an error naming meta.json and %s", err, want)
	}
}

// readDir reads the config directory at path.
func readDir(t *testing.T, path string) *config.Dir {
	t.Helper()
	dir, err := config.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// newHarness builds a harness over the config directory at path.
func newHarness(t *testing.T, path string, opts Options) *Harness {
	t.Helper()
	h, err := NewHarness(context.Background(), readDir(t, path), opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newTestHarness(t *testing.T) *Harness {
	t.Helper()
	return newHarness(t, metastableDir, Options{})
}
