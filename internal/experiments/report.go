package experiments

import (
	"fmt"
	"sort"

	"uqsim/internal/sim"
)

// ReportTables renders a simulation report as summary, per-tier, and
// per-instance tables — shared by the CLI tools. Hybrid runs, runs that
// armed a policy timer and runs with failed calls each gain a table.
func ReportTables(rep *sim.Report) []*Table {
	r := &Result{Rep: rep}
	head := []string{"offered_qps", "goodput_qps"}
	row := r.row(head...)
	for _, b := range rep.Buckets() {
		head = append(head, b.Name)
		row = append(row, fmt.Sprint(b.N))
	}
	tail := []string{"retries", "hedges", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "in_flight"}
	sum := NewTable("Run summary", append(head, tail...)...)
	sum.Add(append(row, r.row(tail...)...)...)

	tiers := NewTable("Per-tier residence latency", "tier", "requests", "mean_ms", "p99_ms")
	for _, name := range sortedKeys(rep.PerTier) {
		h := rep.PerTier[name]
		tiers.Add(name,
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.3f", h.Mean().Millis()),
			fmt.Sprintf("%.3f", h.P99().Millis()))
	}

	insts := NewTable("Instances",
		"instance", "service", "machine", "cores", "util", "completed", "shed", "dropped",
		"canceled", "wasted", "qlen")
	for _, ir := range rep.Instances {
		insts.Add(ir.Name, ir.Service, ir.Machine,
			fmt.Sprintf("%d", ir.Cores),
			fmt.Sprintf("%.2f", ir.Utilization),
			fmt.Sprintf("%d", ir.Completed),
			fmt.Sprintf("%d", ir.Shed),
			fmt.Sprintf("%d", ir.Dropped),
			fmt.Sprintf("%d", ir.Canceled),
			fmt.Sprintf("%d", ir.Wasted),
			fmt.Sprintf("%d", ir.QueueLen))
	}
	out := []*Table{sum, tiers, insts}

	if rep.SampleRate < 1 {
		hyCols := []string{"sample_rate", "bg_arrivals", "bg_completions", "bg_shed", "bg_unreachable",
			"bg_lost_by_cause", "saturated_epochs"}
		hy := NewTable("Hybrid fidelity (foreground above is the sampled fraction)", hyCols...)
		hy.Add(r.row(hyCols...)...)
		out = append(out, hy)
		w := rep.FluidWork
		work := NewTable("Fluid tier work (simulator-side; not in the fingerprint)",
			"epochs", "event_resolves", "memo_hits", "fp_solves", "fp_iterations", "fp_capped",
			"mmk_recurrences")
		work.Add(
			fmt.Sprintf("%d", w.Epochs),
			fmt.Sprintf("%d", w.Resolves),
			fmt.Sprintf("%d", w.MemoHits),
			fmt.Sprintf("%d", w.Solves),
			fmt.Sprintf("%d", w.Iterations),
			fmt.Sprintf("%d", w.Capped),
			fmt.Sprintf("%d", w.Recurrences))
		out = append(out, work)
	}

	if tw := rep.Timers; tw != (sim.TimerWork{}) {
		timers := NewTable("Timers (simulator-side; not in the fingerprint)",
			"kind", "armed", "cancelled", "fired")
		for k, n := range tw {
			timers.Add(sim.TimerKind(k).String(), fmt.Sprintf("%d", n.Armed),
				fmt.Sprintf("%d", n.Cancelled), fmt.Sprintf("%d", n.Fired))
		}
		out = append(out, timers)
	}

	if rep.CrossRegionCalls > 0 || rep.StaleReads > 0 {
		xr := NewTable("Cross-region traffic", "xregion_calls", "stale_reads")
		xr.Add(r.row(xr.Columns...)...)
		out = append(out, xr)
	}

	if len(rep.Errors) > 0 {
		errs := NewTable("Per-service call errors",
			"service", "timeouts", "shed", "dropped", "breaker_open", "unreachable", "retries", "hedges")
		for _, name := range sortedKeys(rep.Errors) {
			ec := rep.Errors[name]
			errs.Add(name,
				fmt.Sprintf("%d", ec.Timeouts),
				fmt.Sprintf("%d", ec.Shed),
				fmt.Sprintf("%d", ec.Dropped),
				fmt.Sprintf("%d", ec.BreakerOpen),
				fmt.Sprintf("%d", ec.Unreachable),
				fmt.Sprintf("%d", ec.Retries),
				fmt.Sprintf("%d", ec.Hedges))
		}
		out = append(out, errs)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
