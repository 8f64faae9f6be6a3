package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/bighouse"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/job"
	"uqsim/internal/power"
	"uqsim/internal/service"
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

// Fig15Diurnal reports the diurnal input load pattern alongside the
// completion rate a powered-managed run actually sustains per time bucket.
func Fig15Diurnal(o Opts) (*Table, error) {
	t := NewTable("Fig. 15 — diurnal load pattern", "t_s", "target_qps", "measured_qps")
	pat := diurnalPattern()
	s, err := apps.TwoTier(apps.TwoTierConfig{Seed: o.Seed, Pattern: pat, Network: true})
	if err != nil {
		return nil, err
	}
	const bucket = des.Second
	_, total := o.window(0, 30*des.Second)
	nBuckets := int(total / bucket)
	counts := make([]int, nBuckets+1)
	s.OnRequestDone = func(now des.Time, _ *job.Request) {
		i := int(now / bucket)
		if i < len(counts) {
			counts[i]++
		}
	}
	if _, err := measure(s, 0, total); err != nil {
		return nil, err
	}
	for i := 0; i < nBuckets; i++ {
		mid := des.Time(i)*bucket + bucket/2
		t.Add(
			fmt.Sprintf("%.2f", mid.Seconds()),
			fmt.Sprintf("%.0f", pat.RateAt(mid)),
			fmt.Sprintf("%.0f", float64(counts[i])/bucket.Seconds()),
		)
	}
	return t, nil
}

// powerRun executes one power-managed 2-tier run under the diurnal load
// and returns the manager.
func powerRun(o Opts, interval des.Time, dur des.Time) (*power.Manager, error) {
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
	mgr, err := power.New(s, power.Config{
		Target:   5 * des.Millisecond,
		Interval: interval,
		Seed:     o.Seed,
	}, tiers)
	if err != nil {
		return nil, err
	}
	s.OnRequestDone = mgr.Observe
	mgr.Start()
	if _, err := measure(s, 0, dur); err != nil {
		return nil, err
	}
	return mgr, nil
}

// Fig16PowerTrace regenerates the tail-latency + per-tier frequency traces
// of Algorithm 1 under the diurnal load (decision interval 0.5s).
func Fig16PowerTrace(o Opts) (*Table, error) {
	t := NewTable("Fig. 16 — power management trace (0.5s interval)",
		"t_s", "p99_ms", "nginx_mhz", "memcached_mhz")
	t.Note = "paper: tail converges near ~2ms against a 5ms QoS (DVFS granularity)"
	_, dur := o.window(0, 120*des.Second)
	mgr, err := powerRun(o, 500*des.Millisecond, dur)
	if err != nil {
		return nil, err
	}
	tail := mgr.TailTrace.Points()
	ng := mgr.FreqTrace["nginx"].Points()
	mc := mgr.FreqTrace["memcached"].Points()
	for i := range tail {
		if i >= len(ng) || i >= len(mc) {
			break
		}
		t.Add(
			fmt.Sprintf("%.2f", tail[i].T.Seconds()),
			fmt.Sprintf("%.3f", tail[i].V),
			fmt.Sprintf("%.0f", ng[i].V),
			fmt.Sprintf("%.0f", mc[i].V),
		)
	}
	return t, nil
}

// Table3PowerViolations regenerates Table III: QoS violation rate versus
// decision interval (paper, simulated system: 0.6% / 2.2% / 5.0% for
// 0.1s / 0.5s / 1s).
func Table3PowerViolations(o Opts) (*Table, error) {
	t := NewTable("Table III — power management QoS violation rates",
		"decision_interval_s", "violation_rate", "mean_freq_mhz", "normalized_energy", "cycles")
	t.Note = "paper (simulated): 0.6% / 2.2% / 5.0% for 0.1s / 0.5s / 1s"
	_, dur := o.window(0, 240*des.Second)
	for _, interval := range []des.Time{100 * des.Millisecond, 500 * des.Millisecond, des.Second} {
		mgr, err := powerRun(o, interval, dur)
		if err != nil {
			return nil, err
		}
		t.Add(
			fmt.Sprintf("%.1f", interval.Seconds()),
			fmt.Sprintf("%.1f%%", 100*mgr.ViolationRate()),
			fmt.Sprintf("%.0f", mgr.MeanFrequency()),
			fmt.Sprintf("%.2f", mgr.NormalizedEnergy()),
			fmt.Sprintf("%d", mgr.Cycles()),
		)
	}
	return t, nil
}

// ---- BigHouse adapter (keeps figures.go free of direct dependencies) ----

type bhResult struct {
	goodput float64
	p99     des.Time
}

func bhCollapse(bp *service.Blueprint, pathIdx int, meanKB float64) dist.Sampler {
	return bighouse.SingleStageService(apps.CollapsedSamplers(bp, pathIdx, meanKB)...)
}

func bhRun(seed uint64, servers int, svc dist.Sampler, qps float64, warmup, dur des.Time) (*bhResult, error) {
	res, err := bighouse.Run(bighouse.Config{
		Seed:         seed,
		Servers:      servers,
		Service:      svc,
		Interarrival: dist.NewExponential(1e9 / qps),
	}, warmup, dur)
	if err != nil {
		return nil, err
	}
	return &bhResult{goodput: res.GoodputQPS, p99: res.Latency.P99()}, nil
}
