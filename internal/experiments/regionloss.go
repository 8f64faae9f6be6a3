package experiments

import (
	"fmt"
	"math"

	"uqsim/internal/cluster"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

func init() {
	Registry["regionloss"] = RegionLoss
}

// regionLossScenario builds the three-region geo-replicated store: one
// replica per region with the home region (east) sized for the full
// load and the remote regions sized for regional spillover only, WAN
// links ordered west (5ms) < eu (40ms) from east, a diurnal east-homed
// client, and a full crash of the east region over the diurnal peak.
// The client calls the store directly — the entry hop stands in for a
// front-end in the client's region, so region routing, WAN delay, and
// stale-read accounting all act on it.
func regionLossScenario(seed uint64, w, d, crash, heal des.Time,
	base, amplitude float64, clientRetries int) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	s.AddMachine("e0", 4, cluster.FreqSpec{})
	s.AddMachine("w0", 4, cluster.FreqSpec{})
	s.AddMachine("eu0", 4, cluster.FreqSpec{})
	geo, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"e0"}},
		{Name: "west", Machines: []string{"w0"}},
		{Name: "eu", Machines: []string{"eu0"}},
	})
	if err != nil {
		return nil, err
	}
	geo.SetDefaultWAN(cluster.WANLink{Latency: 30 * des.Millisecond})
	if err := geo.SetLink("east", "west", cluster.WANLink{Latency: 5 * des.Millisecond}); err != nil {
		return nil, err
	}
	if err := geo.SetLink("east", "eu", cluster.WANLink{Latency: 40 * des.Millisecond}); err != nil {
		return nil, err
	}
	// East is sized for the whole diurnal peak; the survivors hold one
	// core each (≈1000 QPS), so absorbing the failed-over peak pushes
	// them past saturation — the overload the mitigations must bound.
	if _, err := s.Deploy(service.SingleStage("store", dist.NewExponential(float64(des.Millisecond))),
		sim.RoundRobin,
		sim.Placement{Machine: "e0", Cores: 2},
		sim.Placement{Machine: "w0", Cores: 1},
		sim.Placement{Machine: "eu0", Cores: 1}); err != nil {
		return nil, err
	}
	if err := s.SetReplication("store", sim.ReplicationSpec{Lag: 30 * des.Millisecond}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "store")); err != nil {
		return nil, err
	}
	// Phase the diurnal cycle so its peak lands mid-outage.
	mid := float64(crash+heal) / 2
	phase := math.Pi/2 - 2*math.Pi*mid/float64(d)
	s.SetClient(sim.ClientConfig{
		Region: "east",
		Pattern: workload.Diurnal{
			Base: base, Amplitude: amplitude, Period: d, Phase: phase,
		},
		Timeout:    100 * des.Millisecond,
		MaxRetries: clientRetries,
	})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: crash, Kind: fault.CrashDomain, Domain: "east"},
		{At: heal, Kind: fault.RecoverDomain, Domain: "east"},
	}}); err != nil {
		return nil, err
	}
	return s, nil
}

// RegionLoss measures losing a whole region under diurnal load. The
// data plane fails over by itself — nearest-healthy-region routing
// shifts east's traffic to west the moment east's replica leaves the
// rotation — so what distinguishes the cells is what happens to the
// spillover:
//
//   - naive: deep retry budgets at the edge and the client, FIFO
//     queues, no control plane. The saturated survivor converts the
//     outage into a retry storm that outlives the heal, and with
//     nothing promoting the west replica every failed-over read stays
//     stale for the entire outage.
//   - mitigated: capped retries + breaker + CoDel-LIFO (the overload
//     controls) plus the control plane's detector and region failover,
//     which promotes west after the drain grace and bounds the stale
//     window to detection + drain + replication lag.
//
// Goodput dip and post-heal degradation use the diurnal trough as the
// offered floor; failover_ms is the promotion clock minus the crash.
func RegionLoss(o Opts) (*Table, error) {
	t := NewTable("Region loss — geo-replicated failover under diurnal load",
		"scenario", "goodput_qps", "p99_ms", "failover_ms", "dip_ms",
		"degraded_ms_after_heal", "xregion_calls", "stale_reads",
		"retries", "wasted", "region_actions", "leaked")
	t.Note = "full east-region crash over the diurnal peak; dip/degraded: time with " +
		"smoothed goodput under 50% of the diurnal trough ('+' = still degraded at " +
		"run end); failover_ms: crash → west promoted; leaked must be 0"
	w, d := o.window(300*des.Millisecond, 3*des.Second)
	crash := w + des.Time(float64(d)*0.2)
	heal := w + des.Time(float64(d)*0.6)
	const base, amplitude = 800.0, 300.0
	trough := base - amplitude

	type result struct {
		rep        *sim.Report
		failoverMS string
		dip        des.Time
		dipPinned  bool
		degraded   des.Time
		pinned     bool
		actions    string
	}
	run := func(faulted, mitigated bool) (*result, error) {
		clientRetries := 8
		if mitigated {
			clientRetries = 1
		}
		s, err := regionLossScenario(o.Seed, w, d, crash, heal, base, amplitude, clientRetries)
		if err != nil {
			return nil, err
		}
		if !faulted {
			// Rebuild without the fault plan: same scenario, no outage.
			s, err = regionLossScenario(o.Seed, w, d, des.Time(math.MaxInt64), des.Time(math.MaxInt64),
				base, amplitude, clientRetries)
			if err != nil {
				return nil, err
			}
		}
		var plane *control.Plane
		if mitigated {
			if err := s.SetServicePolicy("store", fault.Policy{
				Timeout: 50 * des.Millisecond, MaxRetries: 1,
				BackoffBase: 20 * des.Millisecond, BackoffJitter: 0.5,
				Breaker: &fault.BreakerSpec{
					ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * des.Millisecond,
				},
			}); err != nil {
				return nil, err
			}
			if err := s.SetQueueDiscipline("store", fault.QueueDiscipline{
				Kind: fault.QueueCoDelLIFO, Target: 5 * des.Millisecond,
			}); err != nil {
				return nil, err
			}
			plane, err = control.Attach(s, control.Config{
				Detector: &control.DetectorConfig{Period: 5 * des.Millisecond},
				RegionFailover: &control.RegionFailoverConfig{
					CheckInterval: 5 * des.Millisecond,
					DrainDelay:    20 * des.Millisecond,
				},
			})
			if err != nil {
				return nil, err
			}
		} else {
			// Naive spillover handling: a deep edge retry budget with
			// near-immediate re-offer on top of the client's own storm.
			if err := s.SetServicePolicy("store", fault.Policy{
				Timeout: 50 * des.Millisecond, MaxRetries: 6,
				BackoffBase: des.Millisecond, BackoffJitter: 0.5,
			}); err != nil {
				return nil, err
			}
		}
		gb := trackGoodput(s)
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		r := &result{rep: rep, failoverMS: "-", actions: "-"}
		if faulted {
			r.dip, r.dipPinned = gb.degradedAfter(crash, heal, trough)
			r.degraded, r.pinned = gb.degradedAfter(heal, w+d, trough)
		}
		if plane != nil {
			st := plane.Stats()
			r.actions = fmt.Sprintf("rloss=%d rfo=%d rrest=%d",
				st.RegionLosses, st.RegionFailovers, st.RegionRestores)
			dep, _ := s.Deployment("store")
			if at, ok := dep.PromotedAt("west"); ok {
				r.failoverMS = fmt.Sprintf("%.0f", (at - crash).Millis())
			}
			plane.Stop()
		}
		return r, nil
	}

	fmtDeg := func(v des.Time, pinned bool) string {
		out := fmt.Sprintf("%.0f", v.Millis())
		if pinned {
			out += "+"
		}
		return out
	}
	for _, c := range []struct {
		label              string
		faulted, mitigated bool
	}{
		{"mitigated-no-fault", false, true},
		{"naive-region-loss", true, false},
		{"mitigated-region-loss", true, true},
	} {
		r, err := run(c.faulted, c.mitigated)
		if err != nil {
			return nil, err
		}
		t.Add(c.label,
			fmt.Sprintf("%.0f", r.rep.GoodputQPS),
			fmt.Sprintf("%.3f", r.rep.Latency.P99().Millis()),
			r.failoverMS,
			fmtDeg(r.dip, r.dipPinned),
			fmtDeg(r.degraded, r.pinned),
			fmt.Sprintf("%d", r.rep.CrossRegionCalls),
			fmt.Sprintf("%d", r.rep.StaleReads),
			fmt.Sprintf("%d", r.rep.Retries),
			fmt.Sprintf("%d", r.rep.WastedWork),
			r.actions,
			fmt.Sprintf("%d", validate.Leaked(r.rep)))
	}
	return t, nil
}
