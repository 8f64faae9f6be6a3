package farm

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"uqsim/internal/chaos"
)

// TestFarmChaosCampaignMatchesSerial runs a chaos search on the farm's
// pool and checks the other half of the determinism contract: the
// merged corpus — every artifact file — is byte-identical to archiving
// the same trials serially in one process.
func TestFarmChaosCampaignMatchesSerial(t *testing.T) {
	cfgDir := testConfigDir(t, "metastable")
	const seed, trials = 5, 3

	// Serial reference: run the trials in-process and archive findings
	// exactly as `uqsim chaos` would.
	h, err := chaos.NewHarness(context.Background(), readDir(t, cfgDir), chaos.Options{ConfigDir: cfgDir, Seed: seed, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	serialCorpus := filepath.Join(t.TempDir(), "serial")
	violations := 0
	for i := 0; i < trials; i++ {
		tr, err := h.Trial(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Entry != nil {
			violations++
			if _, err := chaos.ArchiveEntry(serialCorpus, tr.Entry); err != nil {
				t.Fatal(err)
			}
		}
	}

	c, err := NewChaosCampaign(cfgDir, seed, trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	sum, err := Run(context.Background(), Options{Spool: spool, Logf: t.Logf}, c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Committed != trials || sum.Violations != violations {
		t.Fatalf("summary: %+v (want %d violations)", sum, violations)
	}
	auditComplete(t, spool)

	m, err := Merge(spool)
	if err != nil {
		t.Fatal(err)
	}
	if m.Violations != violations || len(m.Entries) != violations {
		t.Fatalf("merge: violations=%d entries=%d, want %d", m.Violations, len(m.Entries), violations)
	}
	farmCorpus := filepath.Join(t.TempDir(), "farm")
	if err := m.WriteCorpus(farmCorpus); err != nil {
		t.Fatal(err)
	}

	serialEntries, farmEntries := corpusEntries(t, serialCorpus), corpusEntries(t, farmCorpus)
	if len(serialEntries) != len(farmEntries) || len(serialEntries) != violations {
		t.Fatalf("corpus sizes: serial=%d farm=%d", len(serialEntries), len(farmEntries))
	}
	for i := range serialEntries {
		if filepath.Base(serialEntries[i]) != filepath.Base(farmEntries[i]) {
			t.Fatalf("entry %d: %s vs %s", i, serialEntries[i], farmEntries[i])
		}
		for _, file := range []string{"meta.json", "faults.json"} {
			want, err := os.ReadFile(filepath.Join(serialEntries[i], file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(farmEntries[i], file))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Fatalf("%s/%s diverged between serial and farm corpus:\n--- serial ---\n%s\n--- farm ---\n%s",
					filepath.Base(serialEntries[i]), file, want, got)
			}
		}
	}
}

// corpusEntries lists the complete entries (those with a meta.json) of a
// chaos corpus directory, sorted by name.
func corpusEntries(t *testing.T, dir string) []string {
	t.Helper()
	metas, err := filepath.Glob(filepath.Join(dir, "*", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metas {
		metas[i] = filepath.Dir(m)
	}
	return metas
}
