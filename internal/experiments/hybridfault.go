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

// hybridFaultRate is the foreground sample rate of the hybrid cells.
const hybridFaultRate = 0.25

// hybridFault validates the fault-aware fluid tier end to end:
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
var hybridFault = Spec{
	Cells: func(o Opts) (cells []Cell) {
		const qps = 1600.0 // backend capacity 2000 → rho 0.8
		warm, phaseDur := o.window(des.Second, 4*des.Second)
		at := func(frac float64) des.Time { return warm + des.Time(frac*float64(phaseDur)) }
		// A "full" cell runs without the fluid tier, any other fid at rate.
		add := func(phase, fid string, rate float64, events []fault.Event, w, d des.Time) {
			cells = append(cells, Cell{Label: []string{phase, fid, fmt.Sprintf("%.4g", rate)}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					return hybridFaultSim(o.Seed, qps, hybridAt(fid, rate), events)
				}})
		}

		// Accuracy: the backend machine underclocked to 90% capacity
		// (latency shifts, still stable) with a partition severing the
		// tiers inside the degrade window; everything heals by 0.8·phase.
		// The "during" window spans the whole fault schedule; the "after"
		// window starts once every fault has healed.
		accuracy := []fault.Event{
			{At: at(0.20), Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1800, Until: at(0.80)},
			{At: at(0.40), Kind: fault.PartitionStart,
				GroupA: []string{"m0"}, GroupB: []string{"m1"}, Until: at(0.55)},
		}
		for i, phase := range []string{"during", "after"} {
			w := warm + des.Time(i)*phaseDur
			add(phase, "full", 1, accuracy, w, phaseDur)
			add(phase, "hybrid", hybridFaultRate, accuracy, w, phaseDur)
		}

		// Equivalence: sample rate 1.0 under the same fault schedule must be
		// bit-identical to full DES — faults resolve nothing in an empty tier.
		add("equiv", "full", 1, accuracy, warm, 2*phaseDur)
		add("equiv", "hybrid-unit", 1, accuracy, warm, 2*phaseDur)

		// Attribution: a saturating DVFS degrade, a partition, and a gray
		// link in disjoint windows — every lost background request must
		// carry its causing fault, and the per-cause sum must close the
		// books exactly (Conservation enforces ΣByCause == shed +
		// unreachable).
		add("attrib", "hybrid", hybridFaultRate, []fault.Event{
			{At: at(0.10), Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1000, Until: at(0.40)},
			{At: at(0.50), Kind: fault.PartitionStart,
				GroupA: []string{"m0"}, GroupB: []string{"m1"}, Until: at(0.60)},
			{At: at(0.70), Kind: fault.SetLink, Src: "m0", Dst: "m1", Drop: 0.2, Until: at(0.90)},
		}, warm, phaseDur)

		// Chaos coverage: generated fault schedules against the robust
		// config, full invariant battery in hybrid mode — including the
		// cross-fidelity check that re-runs each schedule at sample rate
		// 1.0 and demands a bit-identical fingerprint to full DES. Zero
		// violations required. The search is a function cell: its runs are
		// the harness's own.
		cells = append(cells, Cell{Label: []string{"chaos", "hybrid", fmt.Sprintf("%.4g", hybridFaultRate)},
			Func: func() (any, error) {
				dir, err := configDir("robust")
				if err != nil {
					return nil, err
				}
				trials := 200
				if o.scale() < 0.9 {
					trials = int(math.Max(5, 200*o.scale()))
				}
				res, err := chaos.Run(chaos.Options{
					ConfigDir:  dir,
					Seed:       o.Seed,
					Trials:     trials,
					CorpusDir:  "", // findings would be a failure; no corpus to keep
					Fidelity:   "hybrid",
					SampleRate: hybridFaultRate,
				})
				if err != nil {
					return nil, fmt.Errorf("hybridfault chaos search: %w", err)
				}
				if len(res.Findings) > 0 {
					f := res.Findings[0]
					return nil, fmt.Errorf("hybridfault: hybrid chaos search found %d violation(s); first: trial %d %s (%s)",
						len(res.Findings), f.Trial, f.Violation, f.Detail)
				}
				return res.Trials, nil
			}})
		return cells
	},
	Reduce: func(o Opts, rs []Result) (*Table, error) {
		header := []string{"phase", "fidelity", "sample_rate", "goodput_qps", "p50_ms", "p99_ms",
			"p50_err_pct", "p99_err_pct", "within_ci", "bg_arr", "bg_lost_by_cause", "leaked"}
		t := NewTable("Hybrid fidelity under faults — accuracy, attribution, chaos coverage", header...)
		t.Note = "partition + DVFS degrade at backend rho 0.8; within_ci gates sampled quantiles\n" +
			"against the full run during the fault window and after heal; bg_lost_by_cause must\n" +
			"sum exactly into shed+unreachable; the chaos row is a hybrid-mode invariant search"
		add := func(r Result, c cols) {
			r.Value = c
			t.Add(r.row(header[3:]...)...)
		}
		// The during-window tolerances carry extra headroom — the fluid
		// equilibrium tracks fault transients as a sequence of stationary
		// points, which is the approximation this experiment is bounding.
		for i, tol := range []struct {
			base50, k50, base99, k99 float64
		}{{0.15, 3, 0.30, 8}, {0.10, 2, 0.20, 6}} {
			full, hyb := rs[2*i], rs[2*i+1]
			add(full, noErr())
			n := math.Max(1, float64(hyb.Rep.Completions))
			c, err := accuracy(o, "hybridfault "+full.Label[0], hyb.Rep, full.Rep,
				tol.base50+tol.k50/math.Sqrt(n), tol.base99+tol.k99/math.Sqrt(n))
			if err != nil {
				return nil, err
			}
			add(hyb, c)
		}
		if validate.Fingerprint(rs[4].Rep) != validate.Fingerprint(rs[5].Rep) {
			return nil, fmt.Errorf("hybridfault: sample rate 1.0 fingerprint diverged from full DES under faults")
		}
		add(rs[5], exact())
		attrib := rs[6]
		for _, cause := range []hybrid.Cause{hybrid.CauseDegradeFreq, hybrid.CausePartition, hybrid.CauseGrayLink} {
			if attrib.Rep.BackgroundShedByCause[cause] == 0 {
				return nil, fmt.Errorf("hybridfault: no background loss attributed to %s (%v)",
					cause, attrib.Rep.BackgroundShedByCause)
			}
		}
		add(attrib, noErr())
		search := rs[7]
		t.Add(append(search.row(), "-", "-", "-", "-", "-", "pass", "-",
			fmt.Sprintf("trials=%d findings=0", search.Value.(int)), "0")...)
		return t, nil
	},
}

// hybridFaultSim assembles the two-tier scenario: front (deterministic
// 1ms, 4 cores, DVFS-capable m0) calling backend (exponential 2ms, 4
// cores, DVFS-capable m1) under open-loop Poisson load at backend rho 0.8,
// with the fault events installed.
func hybridFaultSim(seed uint64, qps float64, hc *hybrid.Config, events []fault.Event) (*sim.Sim, error) {
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
	return s, s.InstallFaults(fault.Plan{Events: events})
}

// formatByCause renders the attribution as "cause:count,..." in cause
// order, or "-" when the tier booked no losses.
func formatByCause(by hybrid.Losses) string {
	if s := by.String(); s != "" {
		return s
	}
	return "-"
}
