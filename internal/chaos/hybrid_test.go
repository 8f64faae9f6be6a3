package chaos

import (
	"context"
	"path/filepath"
	"testing"
)

// TestReplayCorpusHybridRateOne: hybrid mode at sample rate 1.0 is
// contractually inert, so every committed corpus entry must still replay
// to the recorded finding bit-for-bit — violation and fingerprint.
func TestReplayCorpusHybridRateOne(t *testing.T) {
	entries, err := Entries(filepath.Join(metastableDir, "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("committed corpus is empty; expected at least one entry")
	}
	for _, entry := range entries {
		t.Run(filepath.Base(entry), func(t *testing.T) {
			res, err := ReplayWith(context.Background(), metastableDir, entry, "hybrid", 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Matches() {
				got := "<none>"
				if res.Violation != nil {
					got = res.Violation.ID
				}
				t.Fatalf("hybrid rate-1.0 replay diverged from recorded finding:\n  violation: %s (recorded %s)\n  recorded fp: %s\n  replayed fp: %s",
					got, res.Meta.Violation, res.Meta.Fingerprint, res.Fingerprint)
			}
		})
	}
}

// TestReplayCorpusHybridSampled: replaying the corpus with a real fidelity
// split re-judges the invariants on the hybrid tier's own books. The
// fingerprint legitimately differs from the recorded full-DES one, but
// conservation — foreground identity plus background buckets and per-fault
// attribution — must hold under every archived fault schedule.
func TestReplayCorpusHybridSampled(t *testing.T) {
	entries, err := Entries(filepath.Join(metastableDir, "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range entries {
		t.Run(filepath.Base(entry), func(t *testing.T) {
			res, err := ReplayWith(context.Background(), metastableDir, entry, "hybrid", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil && res.Violation.ID == "conservation" {
				t.Fatalf("sampled hybrid replay broke conservation: %s", res.Violation.Detail)
			}
			if res.Violation != nil && res.Violation.ID == "cross-fidelity" {
				t.Fatalf("sample-rate-1.0 inertness broke under archived schedule: %s", res.Violation.Detail)
			}
		})
	}
}

// TestEmptyScenarioPassesHybrid: the no-fault scenario must pass the full
// battery in hybrid mode too — including the cross-fidelity invariant
// (sample-rate-1.0 bit-identical to full DES) and worker-count
// determinism of the fluid tier.
func TestEmptyScenarioPassesHybrid(t *testing.T) {
	h := newHarness(t, metastableDir, Options{Fidelity: "hybrid", SampleRate: 0.5})
	v, fp, err := h.Verify(Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("empty scenario violates %v in hybrid mode", v)
	}
	if fp == "" {
		t.Fatal("empty fingerprint")
	}
}

// TestHybridSearchRuns: a short hybrid-mode search completes; whatever it
// finds on the deliberately fragile metastable config, the cross-fidelity
// and conservation invariants must never be among the violations — those
// would be hybrid-tier accounting bugs, not config fragility.
func TestHybridSearchRuns(t *testing.T) {
	res, err := Run(context.Background(), Options{
		ConfigDir:  metastableDir,
		Seed:       1,
		Trials:     2,
		CorpusDir:  t.TempDir(),
		Fidelity:   "hybrid",
		SampleRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("unexpected interruption")
	}
	if res.Trials != 2 {
		t.Fatalf("ran %d trials, want 2", res.Trials)
	}
	for _, f := range res.Findings {
		if f.Violation == "conservation" || f.Violation == "cross-fidelity" {
			t.Errorf("trial %d: hybrid-tier invariant broke: %s (%s)", f.Trial, f.Violation, f.Detail)
		}
	}
}
