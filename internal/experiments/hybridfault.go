package experiments

import (
	"fmt"
	"math"

	"uqsim/internal/chaos"
	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// HybridFault validates the fault-aware fluid tier end to end:
//
//   - Accuracy under faults: a two-tier deployment at backend rho 0.8 runs
//     a partition + DVFS-degrade schedule at full DES fidelity and again
//     with a 25% foreground sample. Sampled p50/p99 must land within
//     sampling-aware confidence bounds of the full run both during the
//     fault window and after every fault heals.
//   - Equivalence: sample rate 1.0 with the same fault schedule must
//     produce a bit-identical fingerprint to a run with no hybrid engine.
//   - Attribution: a schedule exercising the full fault vocabulary
//     (DVFS saturation, partition, gray link) must book every lost
//     background request under its causing fault, with the per-cause sum
//     matching shed+unreachable exactly.
//   - Chaos coverage: a hybrid-mode chaos search over configs/robust
//     (generated fault schedules, full invariant battery including the
//     cross-fidelity check) must complete with zero violations.
//
// Every cell asserts foreground conservation plus the background identity
// arrivals == completions + shed + unreachable (leaked must be 0).
func HybridFault(o Opts) (*Table, error) {
	t := NewTable("Hybrid fidelity under faults — accuracy, attribution, chaos coverage",
		"phase", "fidelity", "sample_rate", "goodput_qps", "p50_ms", "p99_ms",
		"p50_err_pct", "p99_err_pct", "within_ci", "bg_arr", "bg_lost_by_cause", "leaked")
	t.Note = "partition + DVFS degrade at backend rho 0.8; within_ci gates sampled quantiles\n" +
		"against the full run during the fault window and after heal; bg_lost_by_cause must\n" +
		"sum exactly into shed+unreachable; the chaos row is a hybrid-mode invariant search"

	const (
		qps        = 1600.0 // backend capacity 2000 → rho 0.8
		sampleRate = 0.25
	)
	warm, phaseDur := o.window(des.Second, 4*des.Second)
	fullScale := o.scale() >= 0.9
	at := func(frac float64) des.Time { return warm + des.Time(frac*float64(phaseDur)) }

	// The accuracy schedule: backend machine underclocked to 90% capacity
	// (latency shifts, still stable) with a partition severing the tiers
	// inside the degrade window. Everything heals by 0.8·phase.
	accuracyFaults := fault.Plan{Events: []fault.Event{
		{At: at(0.20), Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1800, Until: at(0.80)},
		{At: at(0.40), Kind: fault.PartitionStart,
			GroupA: []string{"m0"}, GroupB: []string{"m1"}, Until: at(0.55)},
	}}

	run := func(plan fault.Plan, hc *hybrid.Config, w, d des.Time) (*sim.Report, error) {
		s, err := hybridFaultSim(o.Seed, qps, hc)
		if err != nil {
			return nil, err
		}
		if err := s.InstallFaults(plan); err != nil {
			return nil, err
		}
		return s.Run(w, d)
	}
	addRow := func(phase, fid string, rate float64, rep *sim.Report,
		errP50, errP99 float64, withCI string) error {
		if err := validate.Conservation(rep); err != nil {
			return fmt.Errorf("hybridfault %s/%s: %w", phase, fid, err)
		}
		fmtErr := func(e float64) string {
			if e < 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*e)
		}
		t.Add(phase, fid,
			fmt.Sprintf("%.4g", rate),
			fmt.Sprintf("%.0f", rep.GoodputQPS),
			fmt.Sprintf("%.3f", rep.Latency.P50().Millis()),
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmtErr(errP50), fmtErr(errP99), withCI,
			fmt.Sprintf("%d", rep.BackgroundArrivals),
			formatByCause(rep.BackgroundShedByCause),
			"0",
		)
		return nil
	}

	// Accuracy: the "during" window spans the whole fault schedule; the
	// "after" window starts once every fault has healed. The during-window
	// tolerances carry extra headroom — the fluid equilibrium tracks fault
	// transients as a sequence of stationary points, which is the
	// approximation this experiment is bounding.
	type phaseSpec struct {
		name         string
		w, d         des.Time
		tol50, tol99 func(n float64) float64
	}
	phases := []phaseSpec{
		{"during", warm, phaseDur,
			func(n float64) float64 { return 0.15 + 3/math.Sqrt(n) },
			func(n float64) float64 { return 0.30 + 8/math.Sqrt(n) }},
		{"after", warm + phaseDur, phaseDur,
			func(n float64) float64 { return 0.10 + 2/math.Sqrt(n) },
			func(n float64) float64 { return 0.20 + 6/math.Sqrt(n) }},
	}
	for _, ph := range phases {
		full, err := run(accuracyFaults, nil, ph.w, ph.d)
		if err != nil {
			return nil, err
		}
		if err := addRow(ph.name, "full", 1, full, -1, -1, "-"); err != nil {
			return nil, err
		}
		hyb, err := run(accuracyFaults, &hybrid.Config{SampleRate: sampleRate}, ph.w, ph.d)
		if err != nil {
			return nil, err
		}
		n := math.Max(1, float64(hyb.Completions))
		e50 := relErr(hyb.Latency.P50().Seconds(), full.Latency.P50().Seconds())
		e99 := relErr(hyb.Latency.P99().Seconds(), full.Latency.P99().Seconds())
		within := "yes"
		if e50 > ph.tol50(n) || e99 > ph.tol99(n) {
			within = "no"
			if fullScale {
				return nil, fmt.Errorf("hybridfault %s: sampled quantiles outside CI bounds "+
					"(p50 err %.1f%% tol %.1f%%, p99 err %.1f%% tol %.1f%%)",
					ph.name, 100*e50, 100*ph.tol50(n), 100*e99, 100*ph.tol99(n))
			}
		}
		if err := addRow(ph.name, "hybrid", sampleRate, hyb, e50, e99, within); err != nil {
			return nil, err
		}
	}

	// Equivalence: sample rate 1.0 under the same fault schedule must be
	// bit-identical to full DES — faults resolve nothing in an empty tier.
	span := 2 * phaseDur
	plain, err := run(accuracyFaults, nil, warm, span)
	if err != nil {
		return nil, err
	}
	unit, err := run(accuracyFaults, &hybrid.Config{SampleRate: 1}, warm, span)
	if err != nil {
		return nil, err
	}
	if validate.Fingerprint(plain) != validate.Fingerprint(unit) {
		return nil, fmt.Errorf("hybridfault: sample rate 1.0 fingerprint diverged from full DES under faults")
	}
	if err := addRow("equiv", "hybrid-unit", 1, unit, 0, 0, "yes"); err != nil {
		return nil, err
	}

	// Attribution: a saturating DVFS degrade, a partition, and a gray link
	// in disjoint windows — every lost background request must carry its
	// causing fault, and the per-cause sum must close the books exactly
	// (checkConservation enforces ΣByCause == shed + unreachable).
	attribFaults := fault.Plan{Events: []fault.Event{
		{At: at(0.10), Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1000, Until: at(0.40)},
		{At: at(0.50), Kind: fault.PartitionStart,
			GroupA: []string{"m0"}, GroupB: []string{"m1"}, Until: at(0.60)},
		{At: at(0.70), Kind: fault.SetLink, Src: "m0", Dst: "m1", Drop: 0.2, Until: at(0.90)},
	}}
	attrib, err := run(attribFaults, &hybrid.Config{SampleRate: sampleRate}, warm, phaseDur)
	if err != nil {
		return nil, err
	}
	for _, cause := range []hybrid.Cause{hybrid.CauseDegradeFreq, hybrid.CausePartition, hybrid.CauseGrayLink} {
		if attrib.BackgroundShedByCause[cause] == 0 {
			return nil, fmt.Errorf("hybridfault: no background loss attributed to %s (%v)",
				cause, attrib.BackgroundShedByCause)
		}
	}
	if err := addRow("attrib", "hybrid", sampleRate, attrib, -1, -1, "-"); err != nil {
		return nil, err
	}

	// Chaos coverage: generated fault schedules against the robust config,
	// full invariant battery in hybrid mode — including the cross-fidelity
	// check that re-runs each schedule at sample rate 1.0 and demands a
	// bit-identical fingerprint to full DES. Zero violations required.
	dir, err := configDir("robust")
	if err != nil {
		return nil, err
	}
	trials := 200
	if !fullScale {
		trials = int(math.Max(5, 200*o.scale()))
	}
	res, err := chaos.Run(chaos.Options{
		ConfigDir:  dir,
		Seed:       o.Seed,
		Trials:     trials,
		CorpusDir:  "", // findings would be a failure; no corpus to keep
		Fidelity:   "hybrid",
		SampleRate: sampleRate,
	})
	if err != nil {
		return nil, fmt.Errorf("hybridfault chaos search: %w", err)
	}
	if len(res.Findings) > 0 {
		f := res.Findings[0]
		return nil, fmt.Errorf("hybridfault: hybrid chaos search found %d violation(s); first: trial %d %s (%s)",
			len(res.Findings), f.Trial, f.Violation, f.Detail)
	}
	t.Add("chaos", "hybrid", fmt.Sprintf("%.4g", sampleRate),
		"-", "-", "-", "-", "-", "pass", "-",
		fmt.Sprintf("trials=%d findings=0", res.Trials), "0")
	return t, nil
}

// hybridFaultSim assembles the two-tier scenario: front (deterministic
// 1ms, 4 cores, DVFS-capable m0) calling backend (exponential 2ms, 4
// cores, DVFS-capable m1) under open-loop Poisson load at backend rho 0.8.
func hybridFaultSim(seed uint64, qps float64, hc *hybrid.Config) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	fs := cluster.FreqSpec{MinMHz: 1000, MaxMHz: 2000, StepMHz: 100}
	s.AddMachine("m0", 4, fs)
	s.AddMachine("m1", 4, fs)
	if _, err := s.Deploy(service.SingleStage("front", dist.NewDeterministic(float64(des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 4}); err != nil {
		return nil, err
	}
	if _, err := s.Deploy(service.SingleStage("backend", dist.NewExponential(float64(2*des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m1", Cores: 4}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front", "backend")); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(qps), Proc: workload.Poisson})
	if hc != nil {
		s.SetHybrid(*hc)
	}
	return s, nil
}

// formatByCause renders the attribution as "cause:count,..." in cause
// order, or "-" when the tier booked no losses.
func formatByCause(by hybrid.Losses) string {
	if s := by.String(); s != "" {
		return s
	}
	return "-"
}

func init() {
	Registry["hybridfault"] = HybridFault
}
