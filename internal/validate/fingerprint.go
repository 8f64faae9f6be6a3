package validate

import (
	"fmt"
	"sort"

	"uqsim/internal/sim"
)

// Fingerprint flattens everything a Report asserts about a run into one
// comparable string: every counter, the latency quantiles, the sorted
// per-service error breakdowns, and the per-instance outcome counts. Two
// runs with equal fingerprints observed the same simulation — the equality
// the determinism tests and the chaos harness's same-seed rerun assert, and the identity a replayed corpus scenario must reproduce
// bit-for-bit.
func Fingerprint(rep *sim.Report) string {
	fp := fmt.Sprintf("arr=%d comp=%d to=%d shed=%d drop=%d ddl=%d brk=%d retry=%d hedge=%d/%d cancel=%d waste=%d inflight=%d unreach=%d ldrop=%d ldup=%d xr=%d stale=%d mean=%v p50=%v p99=%v",
		rep.Arrivals, rep.Completions, rep.Timeouts, rep.Shed, rep.Dropped,
		rep.DeadlineExpired, rep.BreakerFastFails, rep.Retries,
		rep.HedgesIssued, rep.HedgeWins, rep.CanceledWork, rep.WastedWork, rep.InFlight,
		rep.Unreachable, rep.LinkDrops, rep.LinkDups,
		rep.CrossRegionCalls, rep.StaleReads,
		rep.Latency.Mean(), rep.Latency.P50(), rep.Latency.P99())
	svcs := make([]string, 0, len(rep.Errors))
	for svc := range rep.Errors {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		fp += fmt.Sprintf(" %s=%+v", svc, *rep.Errors[svc])
	}
	for _, ir := range rep.Instances {
		fp += fmt.Sprintf(" %s:%d/%d/%d/%d/%d",
			ir.Name, ir.Completed, ir.Shed, ir.Dropped, ir.Canceled, ir.Wasted)
	}
	// Hybrid-fidelity background accounting, appended only when present so
	// full-DES fingerprints — including every committed chaos corpus
	// scenario — keep their historical byte format.
	if rep.BackgroundArrivals+rep.BackgroundShed+rep.BackgroundUnreachable > 0 {
		fp += fmt.Sprintf(" bg=%d/%d/%d/%d",
			rep.BackgroundArrivals, rep.BackgroundCompletions,
			rep.BackgroundShed, rep.BackgroundUnreachable)
	}
	if by := rep.BackgroundShedByCause.String(); by != "" {
		fp += " bgcause=" + by
	}
	return fp
}
