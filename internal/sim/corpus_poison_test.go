package sim_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"uqsim/internal/chaos"
	"uqsim/internal/sim"
)

// TestPoisonedCorpusReplay replays the committed chaos corpus with every
// released job, request and request state poisoned (see
// TestPoisonedReleaseChangesNothing): each archived finding must still
// reproduce bit for bit. The poison rides on the replay's context, so
// each entry must also have bound at least one Sim to it: a replay that
// dropped the binding would run unpoisoned and prove nothing.
func TestPoisonedCorpusReplay(t *testing.T) {
	const dir = "../../configs/metastable"
	metas, err := filepath.Glob(filepath.Join(dir, "corpus", "*", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("committed corpus is empty")
	}
	for _, meta := range metas {
		entry := filepath.Dir(meta)
		var poisoned atomic.Int64
		res, err := chaos.Replay(sim.PoisonContext(context.Background(), &poisoned), dir, entry)
		if err != nil {
			t.Fatal(err)
		}
		if poisoned.Load() == 0 {
			t.Fatalf("%s: the replay bound no Sim to its context, so none was poisoned", filepath.Base(entry))
		}
		if !res.Matches() {
			t.Fatalf("%s: poisoned replay diverged:\n  recorded: %s\n  replayed: %s",
				filepath.Base(entry), res.Meta.Fingerprint, res.Fingerprint)
		}
	}
}
