package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"uqsim/internal/stats"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and bounds; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the median
}

// endToEndDefs are the untraced run's metrics: what running the simulator
// costs its user, normalised to simulated seconds and simulated requests
// (never to events, so merging or removing events cannot read as a
// slowdown). The bounds are what the shared 2-core sandbox can resolve:
// over ten back-to-back runs of one binary the host-time metrics spread
// 6-9 % and one run in ten falls in a slow spell of the host (see
// README.md), so a tighter bound would reject the benchmark itself.
var endToEndDefs = []metricDef{
	{Name: "wall_ms_per_sim_s", Unit: "ms/sim_s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_sim_s", Unit: "ms/sim_s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_req", Unit: "mallocs/req", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_req", Unit: "B/req", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// accuracyDef is the simulated-p99 error against a closed-form reference.
// Both runs print it, -compare holds it to accuracyBoundPoints, and the
// driver sees it among the per-layer metrics: its contract bounds an
// end-to-end metric relative to its median on every workload, which a
// near-zero error on two workloads and no reference on the other two
// cannot meet.
var accuracyDef = metricDef{Name: "p99_err_pct", Unit: "%", Better: "lower"}

// accuracyBoundPoints is how far p99_err_pct may rise, in percentage
// points; the value is deterministic for a seed.
const accuracyBoundPoints = 0.5

// unvalidated is p99_err_pct on a workload with no closed-form reference.
const unvalidated = -1

// perLayerDefs are the traced run's metrics, none gated.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{accuracyDef, {Name: "sim.p99_ms", Unit: "ms", Better: "lower"}}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Counts from timed rep 1's report and engine: exact for a seed.
	add("count", "lower", "des.events", "des.pending_end")
	add("1/req", "lower", "des.events_per_req")
	add("1/s", "higher", "des.events_per_s")
	add("count", "higher", "sim.arrivals", "sim.completions")
	add("count", "lower", "sim.timeouts", "sim.retries", "sim.hedges_issued")
	add("count", "higher", "sim.hedge_wins")
	add("count", "lower", "sim.canceled_work", "sim.wasted_work", "sim.shed", "sim.unreachable")
	add("ratio", "higher", "sim.goodput_ratio")
	add("count", "higher", "hybrid.bg_arrivals", "hybrid.bg_completions")
	add("count", "lower", "hybrid.bg_shed", "hybrid.saturated_epochs")
	add("count", "higher", "workload.fg_users", "workload.bg_users")
	add("count", "lower", "control.detections", "control.failovers", "control.ejections")
	// Median duration of the harness's spans around calls into a layer.
	for _, s := range layerSpans {
		add("ms", "lower", s+"_ms")
	}
	// Share of CPU-profile samples taken during Sim.Run; sums to 1.
	for _, l := range cpuLayers {
		add("ratio", "lower", shareMetric(l))
	}
	add("count", "higher", "profile.samples")
	// Cost of one operation through a layer's exported API, alone.
	add("ns", "lower", "des.post_step_ns", "des.at_cancel_ns", "des.step_ns_depth100k",
		"rng.draw_ns", "dist.exp_ns", "dist.lognormal_ns", "stats.record_ns",
		"queueing.fifo_ns", "queueing.epoll_ns", "job.request_tree_ns")
	add("count", "lower", "job.request_tree_allocs")
	add("us", "lower", "hybrid.resolve_us", "analytic.mmk_us")
	// Benchmark health.
	add("%", "lower", "trace.overhead_pct", "bench.wall_iqr_pct")
	return defs
}()

// layerSpans are the spans reported as <name>_ms metrics; the harness also
// records structural ones (workload, rep, build, verify, bench.generate).
var layerSpans = []string{"config.load", "config.hashdir", "apps.build", "sim.run",
	"sim.drain_check", "validate.conservation", "validate.fingerprint"}

// shareMetric names a cpuLayers entry's metric: des.cpu_share, but
// runtime.malloc_share.
func shareMetric(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_share"
	}
	return layer + ".cpu_share"
}

// metric is one reported value with the samples behind it. Value is the
// samples' median, except where fastest picks their minimum; a single
// measurement has N = 1.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the per-rep values in rep order, kept when N > 1.
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reports the median of samples; finish stamps the unit.
func summarize(samples []float64) *metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	med := medianSorted(s)
	m := &metric{Value: med, Median: med, Min: s[0], Max: s[len(s)-1], Q1: q1, Q3: q3, N: len(s)}
	if len(samples) > 1 {
		m.Samples = samples
	}
	return m
}

// fastest reports the minimum of samples. Host time per rep is the work,
// which is fixed, plus whatever the shared host added, which is never
// negative and comes in bursts of a fraction of a second to minutes. Reps
// are short (about half a host second) so that a run holds dozens and some
// fall between bursts: over ten runs with ten seeds the fastest rep spread
// 6-9 % where the median rep spread 5-19 % (README.md, "Steadiness").
func fastest(samples []float64) *metric {
	m := summarize(samples)
	m.Value = m.Min
	return m
}

func single(v float64) *metric { return summarize([]float64{v}) }

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the first and third quartile of sorted samples by the
// exclusive method, as Python's statistics.quantiles(values, n=4).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.75)
}

// spreadPct is the samples' interquartile range as a percentage of their
// median.
func (m *metric) spreadPct() float64 {
	if m.Median == 0 {
		return 0
	}
	return 100 * (m.Q3 - m.Q1) / math.Abs(m.Median)
}

func perRep(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// p99ErrPct compares the merged histogram's p99 with the workload's
// closed-form reference.
func p99ErrPct(w *workload, merged *stats.LatencyHist) float64 {
	if w.referenceP99 == nil {
		return unvalidated
	}
	ref := w.referenceP99().Seconds()
	return 100 * math.Abs(merged.P99().Seconds()-ref) / ref
}

// endToEndMetrics fills the untraced run's metrics from its timed reps.
func endToEndMetrics(out *workloadResult, w *workload, reps []*repResult, merged *stats.LatencyHist, passS []float64) error {
	m := out.Metrics
	m["wall_ms_per_sim_s"] = fastest(perRep(reps, func(r *repResult) float64 { return r.wallMs / r.simS }))
	m["cpu_ms_per_sim_s"] = fastest(perRep(reps, func(r *repResult) float64 { return r.cpuMs / r.simS }))
	m["allocs_per_req"] = summarize(perRep(reps, func(r *repResult) float64 { return float64(r.mallocs) / float64(r.requests) }))
	m["alloc_bytes_per_req"] = summarize(perRep(reps, func(r *repResult) float64 { return float64(r.allocBytes) / float64(r.requests) }))
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = single(rss)
	m["setup_s"] = fastest(passS)
	m[accuracyDef.Name] = single(p99ErrPct(w, merged))
	return nil
}

// perLayerMetrics fills the traced run's metrics: counts from timed rep 1,
// span medians and CPU shares from the traced reps, rates and the tracing
// overhead from the plain reps run beside them.
func perLayerMetrics(out *workloadResult, w *workload, scale float64, plain, traced []*repResult, merged *stats.LatencyHist, tr *tracer) error {
	m := out.Metrics
	set := func(name string, v float64) { m[name] = single(v) }

	set(accuracyDef.Name, p99ErrPct(w, merged))
	set("sim.p99_ms", merged.P99().Millis())

	r1, rep := plain[0], plain[0].report
	set("des.events", float64(r1.events))
	set("des.pending_end", float64(r1.pendingEnd))
	set("des.events_per_req", float64(r1.events)/float64(r1.requests))
	// Events per host second of the fastest rep, as wall_ms_per_sim_s.
	rate := summarize(perRep(plain, func(r *repResult) float64 { return float64(r.events) / (r.wallMs / 1e3) }))
	rate.Value = rate.Max
	m["des.events_per_s"] = rate
	set("sim.arrivals", float64(rep.Arrivals))
	set("sim.completions", float64(rep.Completions))
	set("sim.timeouts", float64(rep.Timeouts))
	set("sim.retries", float64(rep.Retries))
	set("sim.hedges_issued", float64(rep.HedgesIssued))
	set("sim.hedge_wins", float64(rep.HedgeWins))
	set("sim.canceled_work", float64(rep.CanceledWork))
	set("sim.wasted_work", float64(rep.WastedWork))
	set("sim.shed", float64(rep.Shed))
	set("sim.unreachable", float64(rep.Unreachable))
	set("sim.goodput_ratio", float64(rep.Completions)/float64(rep.Arrivals))
	set("hybrid.bg_arrivals", float64(rep.BackgroundArrivals))
	set("hybrid.bg_completions", float64(rep.BackgroundCompletions))
	set("hybrid.bg_shed", float64(rep.BackgroundShed))
	set("hybrid.saturated_epochs", float64(rep.SaturatedEpochs))
	// Time-averaged session users by Little's law: arrival rate times the
	// think-plus-response cycle. Open-loop workloads have no users.
	fg, bg := 0.0, 0.0
	if w.meanThink > 0 {
		window := (rep.Horizon - rep.Warmup).Seconds()
		cycle := (w.meanThink + rep.Latency.Mean()).Seconds()
		fg = float64(rep.Arrivals) / window * cycle
		bg = float64(rep.BackgroundArrivals) / window * cycle
	}
	set("workload.fg_users", fg)
	set("workload.bg_users", bg)
	set("control.detections", float64(r1.control.Detections))
	set("control.failovers", float64(r1.control.Failovers+r1.control.RegionFailovers))
	set("control.ejections", float64(r1.control.Ejections))

	for _, s := range layerSpans {
		set(s+"_ms", tr.medianMs(s))
	}

	var samples []stackSample
	for _, r := range traced {
		s, err := parseProfile(r.profile)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	shares, total := layerShares(samples)
	for _, l := range cpuLayers {
		set(shareMetric(l), shares[l])
	}
	set("profile.samples", float64(total))

	for name, v := range unitCosts(scale) {
		set(name, v)
	}

	// Each traced rep is compared with its own untraced twin, run just
	// before it, so slow drift of the host cancels.
	wall := func(r *repResult) float64 { return r.wallMs / r.simS }
	twins := map[int]*repResult{}
	for _, r := range plain {
		twins[r.rep] = r
	}
	overhead := 0.0
	if len(traced) > 0 {
		overhead = 100 * (median(perRep(traced, func(r *repResult) float64 { return r.wallMs / twins[r.rep].wallMs })) - 1)
	}
	set("trace.overhead_pct", overhead)
	set("bench.wall_iqr_pct", summarize(perRep(plain, wall)).spreadPct())
	return nil
}

// finish checks that a run emitted exactly the declared metrics and
// stamps their units.
func finish(got map[string]*metric, defs []metricDef) error {
	for _, d := range defs {
		mv, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, mv.Value)
		}
		mv.Unit = d.Unit
	}
	if len(got) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range got {
			if !declared[name] {
				return fmt.Errorf("metric %s measured but not declared", name)
			}
		}
	}
	return nil
}

// printMetrics writes one line per metric: name, value, unit and, where
// there are several samples, their median, range and count.
func printMetrics(wr io.Writer, r *workloadResult, defs []metricDef) {
	for _, d := range defs {
		mv := r.Metrics[d.Name]
		switch {
		case d.Name == accuracyDef.Name && mv.Value == unvalidated:
			fmt.Fprintf(wr, "%-10s %-26s unvalidated (no closed-form reference)\n", r.Name, d.Name)
		case mv.N > 1:
			fmt.Fprintf(wr, "%-10s %-26s %14.6g %-12s median %.6g min %.6g max %.6g n=%d\n", r.Name, d.Name, mv.Value, d.Unit, mv.Median, mv.Min, mv.Max, mv.N)
		default:
			fmt.Fprintf(wr, "%-10s %-26s %14.6g %s\n", r.Name, d.Name, mv.Value, d.Unit)
		}
	}
	fmt.Fprintf(wr, "%-10s runs_attempted %d runs_failed %d\n", r.Name, r.RunsAttempted, r.RunsFailed)
	fmt.Fprintf(wr, "%-10s fingerprint %s\n", r.Name, r.Fingerprint)
}
