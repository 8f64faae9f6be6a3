package sim_test

import (
	"path/filepath"
	"testing"

	"uqsim/internal/chaos"
	"uqsim/internal/sim"
)

// TestPoisonedCorpusReplay replays the committed chaos corpus with every
// released job, request and request state poisoned (see
// TestPoisonedReleaseChangesNothing): each archived finding must still
// reproduce bit for bit.
func TestPoisonedCorpusReplay(t *testing.T) {
	const dir = "../../configs/metastable"
	metas, err := filepath.Glob(filepath.Join(dir, "corpus", "*", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("committed corpus is empty")
	}
	prev := sim.OnNew
	sim.OnNew = sim.PoisonReleased
	defer func() { sim.OnNew = prev }()
	for _, meta := range metas {
		entry := filepath.Dir(meta)
		res, err := chaos.Replay(dir, entry)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Matches() {
			t.Fatalf("%s: poisoned replay diverged:\n  recorded: %s\n  replayed: %s",
				filepath.Base(entry), res.Meta.Fingerprint, res.Fingerprint)
		}
	}
}
