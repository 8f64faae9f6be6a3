package main

import (
	"fmt"
	"io"
)

// Verdicts of one (metric, workload) pair.
const (
	within     = "within"
	outside    = "outside"
	unresolved = "unresolved"
)

// verdict judges a change's median b against a base median a for a metric
// that is better when lower: outside when b is worse by more than the
// bound, unresolved when either side's own interquartile spread is wider
// than the bound (the runs cannot tell), within otherwise. bound and
// spreads are shares of the median.
func verdict(a, b *metric, bound float64) string {
	if a.Value <= 0 {
		return unresolved
	}
	if b.Value/a.Value-1 > bound {
		return outside
	}
	if a.spreadPct() > 100*bound || b.spreadPct() > 100*bound {
		return unresolved
	}
	return within
}

// accuracyVerdict holds p99_err_pct to an absolute bound in points; the
// value is deterministic, so there is no spread to resolve.
func accuracyVerdict(a, b *metric) string {
	if (a.Value == unvalidated) != (b.Value == unvalidated) || b.Value-a.Value > accuracyBoundPoints {
		return outside
	}
	return within
}

// compareResults prints, for every (end-to-end metric, workload) pair,
// both medians, the ratio with its base, the bound and the verdict, and
// returns how many pairs were outside.
func compareResults(wr io.Writer, a, b *resultFile) (outsideN int, err error) {
	if a.Traced || b.Traced {
		return 0, fmt.Errorf("-compare reads untraced result files; end-to-end metrics come only from the untraced run")
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(wr, "%-10s %-20s %14s %14s %-22s %-8s %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return 0, fmt.Errorf("workload %s is missing from the second file", wa.Name)
		}
		for _, d := range defsFor(false) {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil {
				return 0, fmt.Errorf("%s %s is missing from a file", wa.Name, d.Name)
			}
			var v, change, bound string
			if d.Name == accuracyDef.Name {
				if ma.Value == unvalidated && mb.Value == unvalidated {
					continue
				}
				v = accuracyVerdict(ma, mb)
				change = fmt.Sprintf("%+.3f points", mb.Value-ma.Value)
				bound = fmt.Sprintf("%.1f pt", accuracyBoundPoints)
			} else {
				v = verdict(ma, mb, d.Bound)
				change = fmt.Sprintf("%.4f of %.6g", mb.Value/ma.Value, ma.Value)
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(wr, "%-10s %-20s %14.6g %14.6g %-22s %-8s %s\n", wa.Name, d.Name, ma.Value, mb.Value, change, bound, v)
			if v == outside {
				outsideN++
			}
		}
		same := "same"
		if wa.Fingerprint != wb.Fingerprint {
			same = "DIFFERENT"
		}
		fmt.Fprintf(wr, "%-10s fingerprint %s; runs_failed %d of %d, %d of %d\n", wa.Name, same,
			wa.RunsFailed, wa.RunsAttempted, wb.RunsFailed, wb.RunsAttempted)
	}
	return outsideN, nil
}

func compareFiles(wr io.Writer, pathA, pathB string) int {
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(wr, "bench:", err)
			return 2
		}
	}
	n, err := compareResults(wr, &a, &b)
	if err != nil {
		fmt.Fprintln(wr, "bench:", err)
		return 2
	}
	if n > 0 {
		fmt.Fprintf(wr, "%d pair(s) outside their bound\n", n)
		return 1
	}
	return 0
}
