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
	"uqsim/internal/workload"
)

// regionLossScenario builds the three-region geo-replicated store: one
// replica per region with the home region (east) sized for the full
// load and the remote regions sized for regional spillover only, WAN
// links ordered west (5ms) < eu (40ms) from east, a diurnal east-homed
// client, and a full crash of the east region over the diurnal peak.
// The client calls the store directly — the entry hop stands in for a
// front-end in the client's region, so region routing, WAN delay, and
// stale-read accounting all act on it.
func regionLossScenario(seed uint64, w, d, crash, heal des.Time,
	base, amplitude float64) (*sim.Sim, error) {
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
		Timeout: 100 * des.Millisecond,
	})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: crash, Kind: fault.CrashDomain, Domain: "east"},
		{At: heal, Kind: fault.RecoverDomain, Domain: "east"},
	}}); err != nil {
		return nil, err
	}
	return s, nil
}

// regionLoss measures losing a whole region under diurnal load. The
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
var regionLoss = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, 3*des.Second)
		crash := w + des.Time(float64(d)*0.2)
		heal := w + des.Time(float64(d)*0.6)
		const base, amplitude = 800.0, 300.0
		trough := base - amplitude
		for _, c := range []struct {
			label              string
			faulted, mitigated bool
		}{
			{"mitigated-no-fault", false, true},
			{"naive-region-loss", true, false},
			{"mitigated-region-loss", true, true},
		} {
			var plane *control.Plane
			var gb *goodputBins
			cells = append(cells, Cell{Label: []string{c.label}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					crashAt, healAt := crash, heal
					if !c.faulted {
						// The same scenario, with the outage beyond the horizon.
						crashAt, healAt = des.Time(math.MaxInt64), des.Time(math.MaxInt64)
					}
					s, err := regionLossScenario(o.Seed, w, d, crashAt, healAt, base, amplitude)
					if err != nil {
						return nil, err
					}
					err = retryPolicy(s, "store", 50*des.Millisecond, !c.mitigated)
					if err == nil && c.mitigated {
						plane, err = control.Attach(s, control.Config{
							Detector: &control.DetectorConfig{Period: 5 * des.Millisecond},
							RegionFailover: &control.RegionFailoverConfig{
								CheckInterval: 5 * des.Millisecond,
								DrainDelay:    20 * des.Millisecond,
							},
						})
					}
					gb = trackGoodput(s)
					return s, err
				},
				Read: func(s *sim.Sim, _ *sim.Report) any {
					r := cols{"failover_ms": "-", "dip_ms": "0", "degraded_ms_after_heal": "0", "region_actions": "-"}
					if c.faulted {
						r["dip_ms"] = gb.degraded(crash, heal, trough)
						r["degraded_ms_after_heal"] = gb.degraded(heal, w+d, trough)
					}
					if plane != nil {
						st := plane.Stats()
						r["region_actions"] = fmt.Sprintf("rloss=%d rfo=%d rrest=%d",
							st.RegionLosses, st.RegionFailovers, st.RegionRestores)
						dep, _ := s.Deployment("store")
						if at, ok := dep.PromotedAt("west"); ok {
							r["failover_ms"] = fmt.Sprintf("%.0f", (at - crash).Millis())
						}
						plane.Stop()
					}
					return r
				}})
		}
		return cells
	},
	Reduce: rows("Region loss — geo-replicated failover under diurnal load",
		"full east-region crash over the diurnal peak; dip/degraded: time with "+
			"smoothed goodput under 50% of the diurnal trough ('+' = still degraded at "+
			"run end); failover_ms: crash → west promoted; leaked must be 0",
		"scenario", "goodput_qps", "p99_ms", "failover_ms", "dip_ms",
		"degraded_ms_after_heal", "xregion_calls", "stale_reads",
		"retries", "wasted", "region_actions", "leaked"),
}
