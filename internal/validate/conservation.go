package validate

import (
	"fmt"

	"uqsim/internal/sim"
)

// Leaked is the conservation residue of a run report: arrivals minus
// every terminal bucket (sim.Report.Buckets) minus in-flight work. Nonzero
// means requests vanished from — or were double-counted in — the
// accounting.
func Leaked(rep *sim.Report) int64 {
	l := int64(rep.Arrivals) - int64(rep.InFlight)
	for _, b := range rep.Buckets() {
		l -= int64(b.N)
	}
	return l
}

// Conservation asserts the identity arrivals == the terminal buckets +
// in-flight on a run report, returning a descriptive error when it fails.
// Every experiment asserts it on every report it produces.
func Conservation(rep *sim.Report) error {
	if l := Leaked(rep); l != 0 {
		counts := fmt.Sprintf("arrivals=%d", rep.Arrivals)
		for _, b := range rep.Buckets() {
			counts += fmt.Sprintf(" %s=%d", b.Name, b.N)
		}
		return fmt.Errorf("validate: conservation violated: %d requests leaked (%s inflight=%d)", l, counts, rep.InFlight)
	}
	// The hybrid fluid tier keeps its own books: background traffic never
	// enters the sampled buckets above, and must balance on its own.
	if rep.BackgroundArrivals != rep.BackgroundCompletions+rep.BackgroundShed+rep.BackgroundUnreachable {
		return fmt.Errorf("validate: background conservation violated: arrivals=%d != completions=%d + shed=%d + unreachable=%d",
			rep.BackgroundArrivals, rep.BackgroundCompletions, rep.BackgroundShed, rep.BackgroundUnreachable)
	}
	// Per-fault attribution must partition the background losses exactly:
	// apportionment uses largest-remainder rounding precisely so no unit
	// of shed or unreachable flow goes uncredited or double-credited.
	if byCause := rep.BackgroundShedByCause.Sum(); byCause > 0 {
		if lost := rep.BackgroundShed + rep.BackgroundUnreachable; byCause != lost {
			return fmt.Errorf("validate: background attribution violated: by-cause sum %d != shed=%d + unreachable=%d",
				byCause, rep.BackgroundShed, rep.BackgroundUnreachable)
		}
	}
	return nil
}
