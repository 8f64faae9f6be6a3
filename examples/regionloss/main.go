// Multi-region failover: a geo-replicated store spans east, west, and
// eu with the client homed in east, then the whole east region crashes
// over the diurnal peak. Nearest-healthy-region routing shifts the
// traffic to west on its own; the acts differ in what happens to the
// spillover. Naive deep retries turn the saturated survivor into a
// retry storm whose reads stay stale for the entire outage, while the
// mitigated run — capped retries, breaker, CoDel-LIFO, and the control
// plane's region failover promoting west after a drain grace — bounds
// both the goodput dip and the stale window.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"uqsim"
)

const (
	warmup = 300 * uqsim.Millisecond
	dur    = 2 * uqsim.Second
	crash  = warmup + dur/5   // outage start
	heal   = warmup + 3*dur/5 // outage end
	base   = 800.0            // diurnal midline QPS
	amp    = 300.0            // diurnal swing
)

// build assembles the three-region store: east holds two cores (sized
// for the full peak), west and eu one each, so a failed-over peak
// saturates the survivors. WAN distances order west (5ms) before eu
// (40ms) from east, and the store replicates with 30ms of lag.
func build(faulted bool, clientRetries int) *uqsim.Sim {
	s := uqsim.New(uqsim.Options{Seed: 42})
	s.AddMachine("e0", 4, uqsim.FreqSpec{})
	s.AddMachine("w0", 4, uqsim.FreqSpec{})
	s.AddMachine("eu0", 4, uqsim.FreqSpec{})
	geo, err := s.SetGeography([]uqsim.Region{
		{Name: "east", Machines: []string{"e0"}},
		{Name: "west", Machines: []string{"w0"}},
		{Name: "eu", Machines: []string{"eu0"}},
	})
	if err != nil {
		panic(err)
	}
	geo.SetDefaultWAN(uqsim.WANLink{Latency: 30 * uqsim.Millisecond})
	if err := geo.SetLink("east", "west", uqsim.WANLink{Latency: 5 * uqsim.Millisecond}); err != nil {
		panic(err)
	}
	if err := geo.SetLink("east", "eu", uqsim.WANLink{Latency: 40 * uqsim.Millisecond}); err != nil {
		panic(err)
	}
	must(s.Deploy(uqsim.SingleStageService("store", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin,
		uqsim.Placement{Machine: "e0", Cores: 2},
		uqsim.Placement{Machine: "w0", Cores: 1},
		uqsim.Placement{Machine: "eu0", Cores: 1}))
	if err := s.SetReplication("store", uqsim.ReplicationSpec{Lag: 30 * uqsim.Millisecond}); err != nil {
		panic(err)
	}
	if err := s.SetTopology(uqsim.LinearTopology("main", "store")); err != nil {
		panic(err)
	}
	// Phase the diurnal cycle so its peak lands mid-outage.
	mid := float64(crash+heal) / 2
	s.SetClient(uqsim.ClientConfig{
		Region: "east",
		Pattern: uqsim.Diurnal{
			Base: base, Amplitude: amp, Period: dur,
			Phase: math.Pi/2 - 2*math.Pi*mid/float64(dur),
		},
		Timeout:    100 * uqsim.Millisecond,
		MaxRetries: clientRetries,
	})
	if faulted {
		if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{
			{At: crash, Kind: uqsim.CrashDomain, Domain: "east"},
			{At: heal, Kind: uqsim.RecoverDomain, Domain: "east"},
		}}); err != nil {
			panic(err)
		}
	}
	return s
}

func must(_ any, err error) {
	if err != nil {
		panic(err)
	}
}

func report(label string, rep *uqsim.Report) {
	fmt.Printf("%-22s goodput=%5.0f qps  p99=%8.3f ms  xregion=%-6d stale=%-6d retries=%-6d leaked=%d\n",
		label, rep.GoodputQPS, rep.Latency.P99().Millis(),
		rep.CrossRegionCalls, rep.StaleReads, rep.Retries, uqsim.Leaked(rep))
}

func main() {
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, report partial results, exit nonzero")
	flag.Parse()
	wd := uqsim.StartWatchdog(*maxWall)

	// Act 1 — no fault: the east-homed client is served entirely in
	// region, so cross-region and stale counters stay at zero.
	s := build(false, 1)
	rep, err := s.Run(warmup, dur)
	if err != nil {
		panic(err)
	}
	report("no-fault", rep)

	// Act 2 — east dies with naive spillover handling: deep retry
	// budgets at the client and the store edge, FIFO queues, no control
	// plane. Every failed-over read is stale (nothing ever promotes
	// west) and the retry storm outlives the heal.
	s = build(true, 8)
	if err := s.SetServicePolicy("store", uqsim.ResiliencePolicy{
		Timeout: 50 * uqsim.Millisecond, MaxRetries: 6,
		BackoffBase: uqsim.Millisecond, BackoffJitter: 0.5,
	}); err != nil {
		panic(err)
	}
	if rep, err = s.Run(warmup, dur); err != nil {
		panic(err)
	}
	report("naive-region-loss", rep)

	// Act 3 — the same outage with the mitigations: capped retries,
	// breaker, CoDel-LIFO, and the control plane detecting the region
	// loss and promoting west after the drain grace. The stale window
	// shrinks to detection + drain + replication lag, and the survivors
	// shed what they cannot serve instead of melting down.
	s = build(true, 1)
	if err := s.SetServicePolicy("store", uqsim.ResiliencePolicy{
		Timeout: 50 * uqsim.Millisecond, MaxRetries: 1,
		BackoffBase: 20 * uqsim.Millisecond, BackoffJitter: 0.5,
		Breaker: &uqsim.BreakerSpec{ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * uqsim.Millisecond},
	}); err != nil {
		panic(err)
	}
	if err := s.SetQueueDiscipline("store", uqsim.QueueDiscipline{
		Kind: uqsim.QueueCoDelLIFO, Target: 5 * uqsim.Millisecond,
	}); err != nil {
		panic(err)
	}
	plane, err := uqsim.AttachControl(s, uqsim.ControlConfig{
		Detector: &uqsim.DetectorConfig{Period: 5 * uqsim.Millisecond},
		RegionFailover: &uqsim.RegionFailoverConfig{
			CheckInterval: 5 * uqsim.Millisecond,
			DrainDelay:    20 * uqsim.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	if rep, err = s.Run(warmup, dur); err != nil {
		panic(err)
	}
	plane.Stop()
	report("mitigated-region-loss", rep)
	st := plane.Stats()
	fmt.Printf("%-22s region losses=%d failovers=%d restores=%d\n",
		"", st.RegionLosses, st.RegionFailovers, st.RegionRestores)
	if dep, ok := s.Deployment("store"); ok {
		if at, promoted := dep.PromotedAt("west"); promoted {
			fmt.Printf("%-22s west promoted %.0f ms after the crash\n", "", (at - crash).Millis())
		}
	}

	if wd.Interrupted() {
		fmt.Fprintf(os.Stderr, "regionloss: interrupted (%s)\n", wd.Reason())
		os.Exit(1)
	}
}
