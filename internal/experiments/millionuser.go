package experiments

import (
	"fmt"
	"math"
	"time"

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

// MillionUser validates the hybrid-fidelity engine end to end:
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
func MillionUser(o Opts) (*Table, error) {
	t := NewTable("Million-user — hybrid fidelity accuracy and scale",
		"rho", "fidelity", "users", "sample_rate", "goodput_qps",
		"p50_ms", "p99_ms", "p50_err_pct", "p99_err_pct", "within_ci",
		"users_per_wall_s", "speedup_x", "bg_arrivals", "leaked")
	t.Note = "within_ci gates sampled quantiles against the full run's confidence bounds;\n" +
		"speedup_x is simulated user-seconds per wall-clock second vs the rho=0.6 full run;\n" +
		"leaked must be 0 and covers both foreground and background conservation"

	const (
		meanServiceS = 0.010 // 10ms exponential service
		thinkS       = 1.0   // 1s exponential think per step
		cores        = 4
	)
	warm, dur := o.window(2*des.Second, 20*des.Second)
	sampleRate := 0.1
	fullScale := o.scale() >= 0.9

	type cell struct {
		rep  *sim.Report
		wall time.Duration
	}
	run := func(users, k int, hc *hybrid.Config) (*cell, error) {
		s, err := millionUserSim(o.Seed, users, k, meanServiceS, thinkS, hc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := s.Run(warm, dur)
		if err != nil {
			return nil, err
		}
		return &cell{rep: rep, wall: time.Since(start)}, nil
	}
	// users-per-wall-second: population × simulated seconds / wall seconds.
	upws := func(users int, c *cell) float64 {
		return float64(users) * dur.Seconds() / c.wall.Seconds()
	}
	addRow := func(rho float64, fid string, users int, rate float64, c *cell,
		errP50, errP99 float64, withCI string, speedup string) error {
		if err := validate.Conservation(c.rep); err != nil {
			return fmt.Errorf("millionuser rho=%.1f %s: %w", rho, fid, err)
		}
		fmtErr := func(e float64) string {
			if e < 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*e)
		}
		t.Add(
			fmt.Sprintf("%.1f", rho), fid,
			fmt.Sprintf("%d", users),
			fmt.Sprintf("%.4g", rate),
			fmt.Sprintf("%.0f", c.rep.GoodputQPS),
			fmt.Sprintf("%.3f", c.rep.Latency.P50().Millis()),
			fmt.Sprintf("%.3f", c.rep.Latency.P99().Millis()),
			fmtErr(errP50), fmtErr(errP99), withCI,
			fmt.Sprintf("%.0f", upws(users, c)),
			speedup,
			fmt.Sprintf("%d", c.rep.BackgroundArrivals),
			"0",
		)
		return nil
	}

	// Accuracy grid: rho = N·E[S] / (k·(Z+E[S])) ⇒ N = rho·k·(Z+E[S])/E[S].
	var fullAt06 *cell
	var users06 int
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		users := int(math.Round(rho * cores * (thinkS + meanServiceS) / meanServiceS))
		full, err := run(users, cores, nil)
		if err != nil {
			return nil, err
		}
		if err := addRow(rho, "full", users, 1, full, -1, -1, "-", "-"); err != nil {
			return nil, err
		}
		hyb, err := run(users, cores, &hybrid.Config{SampleRate: sampleRate})
		if err != nil {
			return nil, err
		}
		if rho == 0.6 {
			fullAt06, users06 = full, users
		}
		// The sampled run sees ~rate× fewer foreground requests; gate its
		// quantiles with a sampling-aware confidence band around the full
		// run's: 10% systematic headroom (the fluid M/M/k open-queue
		// approximation of a finite closed population) plus the quantile
		// standard error at the smaller sample count.
		n := math.Max(1, float64(hyb.rep.Completions))
		tol50 := 0.10 + 2/math.Sqrt(n)
		tol99 := 0.20 + 6/math.Sqrt(n)
		e50 := relErr(hyb.rep.Latency.P50().Seconds(), full.rep.Latency.P50().Seconds())
		e99 := relErr(hyb.rep.Latency.P99().Seconds(), full.rep.Latency.P99().Seconds())
		within := "yes"
		if e50 > tol50 || e99 > tol99 {
			within = "no"
			if fullScale {
				return nil, fmt.Errorf("millionuser rho=%.1f: sampled quantiles outside CI bounds "+
					"(p50 err %.1f%% tol %.1f%%, p99 err %.1f%% tol %.1f%%)",
					rho, 100*e50, 100*tol50, 100*e99, 100*tol99)
			}
		}
		if err := addRow(rho, "hybrid", users, sampleRate, hyb, e50, e99, within, "-"); err != nil {
			return nil, err
		}
	}

	// Equivalence: sample rate 1.0 is bit-identical to no hybrid at all.
	plain, err := run(users06, cores, nil)
	if err != nil {
		return nil, err
	}
	unit, err := run(users06, cores, &hybrid.Config{SampleRate: 1})
	if err != nil {
		return nil, err
	}
	if validate.Fingerprint(plain.rep) != validate.Fingerprint(unit.rep) {
		return nil, fmt.Errorf("millionuser: sample rate 1.0 fingerprint diverged from full DES")
	}
	if err := addRow(0.6, "hybrid-unit", users06, 1, unit, 0, 0, "yes", "-"); err != nil {
		return nil, err
	}

	// Scale: a million users on a proportionally scaled deployment, with
	// the sample rate chosen so the simulated foreground stays the size of
	// the full-DES baseline.
	bigUsers := int(1e6 * o.scale())
	if bigUsers < 10*users06 {
		bigUsers = 10 * users06
	}
	grow := float64(bigUsers) / float64(users06)
	big, err := run(bigUsers, int(math.Ceil(float64(cores)*grow)),
		&hybrid.Config{SampleRate: float64(users06) / float64(bigUsers)})
	if err != nil {
		return nil, err
	}
	speed := upws(bigUsers, big) / upws(users06, fullAt06)
	if fullScale && speed < 100 {
		return nil, fmt.Errorf("millionuser: hybrid simulated only %.0f× more user-seconds per wall second, want >= 100×", speed)
	}
	if err := addRow(0.6, "hybrid", bigUsers, float64(users06)/float64(bigUsers), big,
		-1, -1, "-", fmt.Sprintf("%.0f", speed)); err != nil {
		return nil, err
	}
	return t, nil
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
