package sim_test

import (
	"testing"

	"uqsim/internal/job"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
)

// TestOutcomeTable guards the request-outcome vocabulary: every outcome
// has its own name, and every counter slot a request can end in reaches
// the conservation identity and the fingerprint. A slot added to the
// outcome table but missing from Report.Buckets leaves Leaked at 0 here;
// one missing from Fingerprint prints like the empty report, or like
// another slot.
func TestOutcomeTable(t *testing.T) {
	names := make(map[string]job.Outcome)
	slots := map[job.Outcome]bool{job.OutcomeTimeout: true} // the client's patience
	for o := range job.NumOutcomes {
		name := o.String()
		if name == "" || name == "unknown" {
			t.Errorf("outcome %d has no name", o)
		}
		if prev, dup := names[name]; dup {
			t.Errorf("outcomes %d and %d are both named %q", prev, o, name)
		}
		names[name] = o
		slots[o.Counted()] = true
	}
	if got := job.NumOutcomes.String(); got != "unknown" {
		t.Errorf("out-of-range outcome named %q", got)
	}

	zero := validate.Fingerprint(sim.ReportCounting([job.NumOutcomes]uint64{}))
	seen := map[string]job.Outcome{}
	for slot := range slots {
		var n [job.NumOutcomes]uint64
		n[slot] = 1
		rep := sim.ReportCounting(n)
		if l := validate.Leaked(rep); l != -1 {
			t.Errorf("one request counted %v: Leaked = %d, want -1", slot, l)
		}
		fp := validate.Fingerprint(rep)
		if fp == zero {
			t.Errorf("one request counted %v: fingerprint equals the empty report's", slot)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("slots %v and %v print the same fingerprint %q", prev, slot, fp)
		}
		seen[fp] = slot
	}
}
