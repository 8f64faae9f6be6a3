package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/power"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// diurnalPattern is the load shape shared by the power experiments
// (Fig. 15): a day/night swing between ~5k and ~45k QPS, compressed so one
// "day" lasts 30 virtual seconds. The period is long relative to every
// decision interval studied, so what separates the intervals is how long
// the controller lags the morning ramp — the paper's violation mechanism.
func diurnalPattern() workload.Diurnal {
	return workload.Diurnal{
		Base:      25000,
		Amplitude: 20000,
		Period:    30 * des.Second,
		Floor:     2000,
	}
}

// fig15 reports the diurnal input load pattern alongside the completion
// rate a run actually sustains per one-second bucket.
var fig15 = Spec{
	Cells: func(o Opts) []Cell {
		_, total := o.window(0, 30*des.Second)
		var counts []int
		return []Cell{{Label: []string{"diurnal"}, Window: total,
			Build: func() (*sim.Sim, error) {
				s, err := apps.TwoTier(apps.TwoTierConfig{Seed: o.Seed, Pattern: diurnalPattern(), Network: true})
				if err != nil {
					return nil, err
				}
				counts = make([]int, int(total/des.Second)+1)
				s.OnRequestDone = func(now des.Time, _ *job.Request) {
					if i := int(now / des.Second); i < len(counts) {
						counts[i]++
					}
				}
				return s, nil
			},
			Read: func(*sim.Sim, *sim.Report) any { return counts }}}
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Fig. 15 — diurnal load pattern", "t_s", "target_qps", "measured_qps")
		counts := rs[0].Value.([]int)
		for i := range counts[:len(counts)-1] {
			mid := des.Time(i)*des.Second + des.Second/2
			t.Add(fmt.Sprintf("%.2f", mid.Seconds()), f0(diurnalPattern().RateAt(mid)), f0(float64(counts[i])))
		}
		return t, nil
	},
}

// powerRun is one power-managed 2-tier run under the diurnal load,
// labelled with its decision interval; Read hands the reducer the
// manager.
func powerRun(o Opts, interval, dur des.Time) Cell {
	var mgr *power.Manager
	return Cell{Label: []string{fmt.Sprintf("%.1f", interval.Seconds())}, Window: dur,
		Build: func() (*sim.Sim, error) {
			s, err := apps.TwoTier(apps.TwoTierConfig{Seed: o.Seed, Pattern: diurnalPattern(), Network: true})
			if err != nil {
				return nil, err
			}
			var tiers []*power.Tier
			for _, name := range []string{"nginx", "memcached"} {
				dep, ok := s.Deployment(name)
				if !ok {
					return nil, fmt.Errorf("experiments: deployment %s missing", name)
				}
				tier := &power.Tier{Name: name}
				for _, in := range dep.Instances {
					tier.Allocs = append(tier.Allocs, in.Alloc)
				}
				tiers = append(tiers, tier)
			}
			mgr, err = power.New(s, power.Config{
				Target:   5 * des.Millisecond,
				Interval: interval,
				Seed:     o.Seed,
			}, tiers)
			if err != nil {
				return nil, err
			}
			s.OnRequestDone = mgr.Observe
			mgr.Start()
			return s, nil
		},
		Read: func(*sim.Sim, *sim.Report) any { return mgr }}
}

// fig16 regenerates the tail-latency + per-tier frequency traces of
// Algorithm 1 under the diurnal load (decision interval 0.5s).
var fig16 = Spec{
	Cells: func(o Opts) []Cell {
		_, dur := o.window(0, 120*des.Second)
		return []Cell{powerRun(o, 500*des.Millisecond, dur)}
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Fig. 16 — power management trace (0.5s interval)",
			"t_s", "p99_ms", "nginx_mhz", "memcached_mhz")
		t.Note = "paper: tail converges near ~2ms against a 5ms QoS (DVFS granularity)"
		mgr := rs[0].Value.(*power.Manager)
		tail := mgr.TailTrace.Points()
		ng := mgr.FreqTrace["nginx"].Points()
		mc := mgr.FreqTrace["memcached"].Points()
		for i := range tail[:min(len(tail), len(ng), len(mc))] {
			t.Add(
				fmt.Sprintf("%.2f", tail[i].T.Seconds()),
				fmt.Sprintf("%.3f", tail[i].V),
				f0(ng[i].V),
				f0(mc[i].V),
			)
		}
		return t, nil
	},
}

// table3 regenerates Table III: QoS violation rate versus decision
// interval (paper, simulated system: 0.6% / 2.2% / 5.0% for 0.1s / 0.5s /
// 1s).
var table3 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		_, dur := o.window(0, 240*des.Second)
		for _, interval := range []des.Time{100 * des.Millisecond, 500 * des.Millisecond, des.Second} {
			cells = append(cells, powerRun(o, interval, dur))
		}
		return cells
	},
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Table III — power management QoS violation rates",
			"decision_interval_s", "violation_rate", "mean_freq_mhz", "normalized_energy", "cycles")
		t.Note = "paper (simulated): 0.6% / 2.2% / 5.0% for 0.1s / 0.5s / 1s"
		for _, r := range rs {
			mgr := r.Value.(*power.Manager)
			t.Add(r.Label[0], pct(mgr.ViolationRate()), f0(mgr.MeanFrequency()),
				fmt.Sprintf("%.2f", mgr.NormalizedEnergy()), fmt.Sprint(mgr.Cycles()))
		}
		return t, nil
	},
}
