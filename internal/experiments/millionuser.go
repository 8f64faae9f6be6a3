package experiments

import (
	"fmt"
	"math"
	"strconv"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// The million-user scenario: 10ms exponential service, 1s exponential
// think per step, four cores, and a 10% foreground sample.
const (
	muServiceS   = 0.010
	muThinkS     = 1.0
	muCores      = 4
	muSampleRate = 0.1
)

// millionUser validates the hybrid-fidelity engine end to end:
//
//   - Accuracy: at rho ∈ {0.3, 0.6, 0.8} a session population is run at
//     full DES fidelity and again with only a sampled fraction simulated
//     (the rest fluid background load). The sampled p50/p99 must land
//     within the quantile confidence bounds of the full run.
//   - Equivalence: a hybrid configuration at sample rate 1.0 must produce
//     a bit-identical fingerprint to a run with no hybrid engine at all.
//   - Scale: a million-user population at a proportionally scaled
//     deployment must simulate at least 100× more user-seconds per
//     wall-clock second than the full-DES baseline.
//
// Every cell asserts both conservation identities: the sampled foreground
// buckets and the fluid tier's background arrivals == completions + shed.
var millionUser = Spec{
	Cells: func(o Opts) (cells []Cell) {
		warm, dur := o.window(2*des.Second, 20*des.Second)
		add := func(rho float64, fid string, users, k int, rate float64) {
			cells = append(cells, Cell{
				Label:  []string{fmt.Sprintf("%.1f", rho), fid, fmt.Sprint(users), fmt.Sprintf("%.4g", rate)},
				Warmup: warm, Window: dur,
				Build: func() (*sim.Sim, error) {
					return millionUserSim(o.Seed, users, k, muServiceS, muThinkS, hybridAt(fid, rate))
				}})
		}
		// Accuracy grid: rho = N·E[S] / (k·(Z+E[S])) ⇒ N = rho·k·(Z+E[S])/E[S].
		users := func(rho float64) int {
			return int(math.Round(rho * muCores * (muThinkS + muServiceS) / muServiceS))
		}
		for _, rho := range []float64{0.3, 0.6, 0.8} {
			add(rho, "full", users(rho), muCores, 1)
			add(rho, "hybrid", users(rho), muCores, muSampleRate)
		}
		// Equivalence: sample rate 1.0 is bit-identical to no hybrid at all.
		add(0.6, "full", users(0.6), muCores, 1)
		add(0.6, "hybrid-unit", users(0.6), muCores, 1)
		// Scale: a million users on a proportionally scaled deployment, with
		// the sample rate chosen so the simulated foreground stays the size
		// of the full-DES baseline.
		big := max(int(1e6*o.scale()), 10*users(0.6))
		grow := float64(big) / float64(users(0.6))
		add(0.6, "hybrid", big, int(math.Ceil(muCores*grow)), float64(users(0.6))/float64(big))
		return cells
	},
	Reduce: func(o Opts, rs []Result) (*Table, error) {
		header := []string{"rho", "fidelity", "users", "sample_rate", "goodput_qps",
			"p50_ms", "p99_ms", "p50_err_pct", "p99_err_pct", "within_ci",
			"users_per_wall_s", "speedup_x", "bg_arrivals", "leaked"}
		t := NewTable("Million-user — hybrid fidelity accuracy and scale", header...)
		t.Note = "within_ci gates sampled quantiles against the full run's confidence bounds;\n" +
			"speedup_x is simulated user-seconds per wall-clock second vs the rho=0.6 full run;\n" +
			"leaked must be 0 and covers both foreground and background conservation"
		_, dur := o.window(2*des.Second, 20*des.Second)
		// users-per-wall-second: population × simulated seconds / wall seconds.
		upws := func(r Result) float64 {
			users, _ := strconv.Atoi(r.Label[2])
			return float64(users) * dur.Seconds() / r.Wall.Seconds()
		}
		add := func(r Result, c cols, speedup string) {
			c["users_per_wall_s"], c["speedup_x"] = f0(upws(r)), speedup
			r.Value = c
			t.Add(r.row(header[4:]...)...)
		}
		for i := 0; i < 6; i += 2 {
			full, hyb := rs[i], rs[i+1]
			add(full, noErr(), "-")
			// The sampled run sees ~rate× fewer foreground requests; gate
			// its quantiles with a sampling-aware confidence band around
			// the full run's: 10% systematic headroom (the fluid M/M/k
			// open-queue approximation of a finite closed population) plus
			// the quantile standard error at the smaller sample count.
			n := math.Max(1, float64(hyb.Rep.Completions))
			c, err := accuracy(o, "millionuser rho="+full.Label[0], hyb.Rep, full.Rep, 0.10+2/math.Sqrt(n), 0.20+6/math.Sqrt(n))
			if err != nil {
				return nil, err
			}
			add(hyb, c, "-")
		}
		if validate.Fingerprint(rs[6].Rep) != validate.Fingerprint(rs[7].Rep) {
			return nil, fmt.Errorf("millionuser: sample rate 1.0 fingerprint diverged from full DES")
		}
		add(rs[7], exact(), "-")
		big := rs[8]
		speed := upws(big) / upws(rs[2])
		if o.scale() >= 0.9 && speed < 100 {
			return nil, fmt.Errorf("millionuser: hybrid simulated only %.0f× more user-seconds per wall second, want >= 100×", speed)
		}
		add(big, noErr(), f0(speed))
		return t, nil
	},
}

// hybridAt is the fluid-tier split of a cell: none for a "full" cell,
// else the sampled foreground at rate.
func hybridAt(fid string, rate float64) *hybrid.Config {
	if fid == "full" {
		return nil
	}
	return &hybrid.Config{SampleRate: rate}
}

// noErr and exact are the accuracy columns of a row with no reference
// run, and of a row that must equal its reference bit for bit.
func noErr() cols { return cols{"p50_err_pct": "-", "p99_err_pct": "-", "within_ci": "-"} }
func exact() cols { return cols{"p50_err_pct": "0.0", "p99_err_pct": "0.0", "within_ci": "yes"} }

// accuracy compares a sampled run's p50/p99 with the full run's against
// the tolerances: within_ci is "no" beyond either, an error at full
// scale.
func accuracy(o Opts, name string, hyb, full *sim.Report, tol50, tol99 float64) (cols, error) {
	e50 := relErr(hyb.Latency.P50().Seconds(), full.Latency.P50().Seconds())
	e99 := relErr(hyb.Latency.P99().Seconds(), full.Latency.P99().Seconds())
	c := cols{"p50_err_pct": fmt.Sprintf("%.1f", 100*e50), "p99_err_pct": fmt.Sprintf("%.1f", 100*e99), "within_ci": "yes"}
	if e50 > tol50 || e99 > tol99 {
		c["within_ci"] = "no"
		if o.scale() >= 0.9 {
			return nil, fmt.Errorf("%s: sampled quantiles outside CI bounds "+
				"(p50 err %.1f%% tol %.1f%%, p99 err %.1f%% tol %.1f%%)",
				name, 100*e50, 100*tol50, 100*e99, 100*tol99)
		}
	}
	return c, nil
}

// millionUserSim assembles the million-user scenario: a session population
// walking a two-step journey (think → request) against one exponential
// service, optionally under a hybrid fidelity split.
func millionUserSim(seed uint64, users, k int, meanServiceS, thinkS float64, hc *hybrid.Config) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	s.AddMachine("m0", k, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("front", dist.NewExponential(meanServiceS*1e9)),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: k}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front")); err != nil {
		return nil, err
	}
	think := dist.NewExponential(thinkS * 1e9)
	s.SetClient(sim.ClientConfig{
		Sessions: &workload.SessionConfig{
			Users: users,
			Journeys: []workload.Journey{{
				Name:   "browse",
				Weight: 1,
				Steps: []workload.SessionStep{
					{Tree: 0, Think: think},
					{Tree: 0, Think: think},
				},
			}},
		},
	})
	if hc != nil {
		s.SetHybrid(*hc)
	}
	return s, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}
