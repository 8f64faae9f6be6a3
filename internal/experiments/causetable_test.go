package experiments

import (
	"fmt"
	"strings"
	"testing"

	"uqsim/internal/hybrid"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
	"uqsim/internal/validate"
)

// TestCauseTable guards the background-loss vocabulary: every cause has
// its own name, rows stay in name order (the order attribution breaks
// ties in and the bgcause= section has always printed), and a loss charged to any cause shows in the fingerprint's
// bgcause= section, in the hybridfault table's bg_lost_by_cause column and
// in the attribution sum Conservation checks.
func TestCauseTable(t *testing.T) {
	names := make(map[string]hybrid.Cause)
	var all hybrid.Losses
	for c := range all {
		cause := hybrid.Cause(c)
		name := cause.String()
		if name == "" || name == "unknown" || strings.ContainsAny(name, ":, ") {
			t.Errorf("cause %d has no usable name: %q", c, name)
		}
		if c > 0 && name <= hybrid.Cause(c-1).String() {
			t.Errorf("cause %q is not after %q: rows must stay in name order", name, hybrid.Cause(c-1))
		}
		if prev, dup := names[name]; dup {
			t.Errorf("causes %d and %d are both named %q", prev, c, name)
		}
		names[name] = cause

		var by hybrid.Losses
		by[c] = 7
		all[c] = uint64(c + 1)
		rep := &sim.Report{BackgroundShed: 7, BackgroundShedByCause: by, Latency: stats.NewLatencyHist()}
		want := fmt.Sprintf("%s:7", name)
		if fp := validate.Fingerprint(rep); !strings.HasSuffix(fp, " bgcause="+want) {
			t.Errorf("fingerprint of a loss charged to %s lacks %q: %s", name, want, fp)
		}
		if got := formatByCause(by); got != want {
			t.Errorf("formatByCause = %q, want %q", got, want)
		}
		rep.BackgroundArrivals = 7
		if err := validate.Conservation(rep); err != nil {
			t.Errorf("loss charged to %s: %v", name, err)
		}
		rep.BackgroundShed = 6
		rep.BackgroundArrivals = 6
		if err := validate.Conservation(rep); err == nil {
			t.Errorf("loss charged to %s: an attribution one over the losses passes", name)
		}
	}
	// Every cause at once renders in row (name) order.
	var parts []string
	for c, n := range all {
		parts = append(parts, fmt.Sprintf("%s:%d", hybrid.Cause(c), n))
	}
	if got, want := formatByCause(all), strings.Join(parts, ","); got != want {
		t.Errorf("formatByCause = %q, want %q", got, want)
	}
	if got := formatByCause(hybrid.Losses{}); got != "-" {
		t.Errorf("formatByCause of no losses = %q, want -", got)
	}
}
