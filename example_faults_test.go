package uqsim_test

import (
	"fmt"
	"math"

	"uqsim"
)

// ExampleSim_InstallFaults crashes one of two machines under load for
// 300ms, first with no protection and then behind a per-edge policy of
// attempt timeouts, jittered backoff retries and a circuit breaker, which
// trades some goodput for a third of the tail. The same seed and plan
// always reproduce the same run. The sweep over fault
// kinds and mitigations is `uqsim experiments resilience`.
func ExampleSim_InstallFaults() {
	plan := uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: 400 * uqsim.Millisecond, Kind: uqsim.CrashMachine, Machine: "m1"},
		{At: 700 * uqsim.Millisecond, Kind: uqsim.RecoverMachine, Machine: "m1"},
	}}
	for _, guarded := range []bool{false, true} {
		s := uqsim.New(uqsim.Options{Seed: 7})
		s.AddMachine("m0", 4, uqsim.DefaultFreqSpec)
		s.AddMachine("m1", 4, uqsim.DefaultFreqSpec)
		if _, err := s.Deploy(
			uqsim.SingleStageService("api", uqsim.Exponential(uqsim.Millisecond)),
			uqsim.RoundRobin,
			uqsim.Placement{Machine: "m0", Cores: 1},
			uqsim.Placement{Machine: "m1", Cores: 1},
		); err != nil {
			panic(err)
		}
		if err := s.SetTopology(uqsim.LinearTopology("main", "api")); err != nil {
			panic(err)
		}
		s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(1500)})
		if guarded {
			if err := s.SetServicePolicy("api", uqsim.ResiliencePolicy{
				Timeout:       50 * uqsim.Millisecond,
				MaxRetries:    3,
				BackoffBase:   5 * uqsim.Millisecond,
				BackoffJitter: 0.5,
				Breaker:       &uqsim.BreakerSpec{ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * uqsim.Millisecond},
			}); err != nil {
				panic(err)
			}
		}
		if err := s.InstallFaults(plan); err != nil {
			panic(err)
		}
		rep, err := s.Run(200*uqsim.Millisecond, uqsim.Second)
		if err != nil {
			panic(err)
		}
		ec := rep.Errors["api"]
		fmt.Printf("guarded=%-5t goodput=%.0f p99=%v retries=%d dropped=%d call_timeouts=%d leaked=%d\n",
			guarded, rep.GoodputQPS, rep.Latency.P99(), rep.Retries, rep.Dropped, ec.Timeouts, uqsim.Leaked(rep))
	}
	// Output:
	// guarded=false goodput=1432 p99=135.358ms retries=0 dropped=4 call_timeouts=0 leaked=0
	// guarded=true  goodput=1212 p99=44.655ms retries=75 dropped=0 call_timeouts=71 leaked=0
}

// ExampleSim_SetQueueDiscipline holds one service at 1.5× its capacity
// under a 20ms objective. As a bare client timeout, the FIFO queue serves
// requests nobody waits for and goodput collapses. As a deadline budget
// carried with the request, CoDel-governed adaptive LIFO and a p95 hedge,
// expired work is cancelled and goodput holds. The load sweep is
// `uqsim experiments overload`.
func ExampleSim_SetQueueDiscipline() {
	const slo, qps = 20 * uqsim.Millisecond, 3000
	for _, graceful := range []bool{false, true} {
		s := uqsim.New(uqsim.Options{Seed: 7})
		s.AddMachine("m0", 4, uqsim.DefaultFreqSpec)
		s.AddMachine("m1", 4, uqsim.DefaultFreqSpec)
		if _, err := s.Deploy(
			uqsim.SingleStageService("api", uqsim.Exponential(uqsim.Millisecond)),
			uqsim.RoundRobin,
			uqsim.Placement{Machine: "m0", Cores: 1},
			uqsim.Placement{Machine: "m1", Cores: 1},
		); err != nil {
			panic(err)
		}
		if err := s.SetTopology(uqsim.LinearTopology("main", "api")); err != nil {
			panic(err)
		}
		if !graceful {
			s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(qps), Timeout: slo})
		} else {
			s.SetClient(uqsim.ClientConfig{
				Pattern: uqsim.ConstantRate(qps),
				Budget:  uqsim.Deterministic(float64(slo)),
			})
			if err := s.SetQueueDiscipline("api", uqsim.QueueDiscipline{
				Kind: uqsim.QueueCoDelLIFO, Target: 5 * uqsim.Millisecond,
			}); err != nil {
				panic(err)
			}
			if err := s.SetServicePolicy("api", uqsim.ResiliencePolicy{
				Hedge: &uqsim.HedgeSpec{Quantile: 0.95, MinSamples: 32},
			}); err != nil {
				panic(err)
			}
		}
		rep, err := s.Run(500*uqsim.Millisecond, uqsim.Second)
		if err != nil {
			panic(err)
		}
		fmt.Printf("graceful=%-5t goodput=%.0f p99=%v timeouts=%d deadline=%d hedges=%d wasted=%d canceled=%d leaked=%d\n",
			graceful, rep.GoodputQPS, rep.Latency.P99(), rep.Timeouts, rep.DeadlineExpired,
			rep.HedgesIssued, rep.WastedWork, rep.CanceledWork, uqsim.Leaked(rep))
	}
	// Output:
	// graceful=false goodput=0 p99=20.000ms timeouts=3015 deadline=0 hedges=0 wasted=0 canceled=0 leaked=0
	// graceful=true  goodput=1962 p99=9.914ms timeouts=0 deadline=1092 hedges=2653 wasted=35 canceled=1821 leaked=0
}

// ExampleSim_SetDomains cuts a frontend→backend chain with a 200ms
// network partition, then crashes the backend's rack as a staggered
// burst. The partition shows as unreachable attempts that fail fast; the
// crash as dropped in-flight work, and in the rack's live fraction, which
// a monitor samples. The retry-storm study is
// `uqsim experiments metastable`.
func ExampleSim_SetDomains() {
	s := uqsim.New(uqsim.Options{Seed: 21})
	for _, m := range []string{"m0", "m1", "m2"} {
		s.AddMachine(m, 4, uqsim.DefaultFreqSpec)
	}
	if _, err := s.Deploy(uqsim.SingleStageService("front", uqsim.Deterministic(float64(100*uqsim.Microsecond))),
		uqsim.RoundRobin, uqsim.Placement{Machine: "m0", Cores: 2}); err != nil {
		panic(err)
	}
	if _, err := s.Deploy(uqsim.SingleStageService("backend", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin, uqsim.Placement{Machine: "m1", Cores: 2}); err != nil {
		panic(err)
	}
	if err := s.SetTopology(uqsim.LinearTopology("main", "front", "backend")); err != nil {
		panic(err)
	}
	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(1000)})
	if err := s.SetDomains([]uqsim.FailureDomain{{Name: "rack0", Machines: []string{"m1", "m2"}}}); err != nil {
		panic(err)
	}
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: 300 * uqsim.Millisecond, Until: 500 * uqsim.Millisecond, Kind: uqsim.PartitionStart,
			GroupA: []string{"m0"}, GroupB: []string{"m1"}},
		{At: 700 * uqsim.Millisecond, Kind: uqsim.CrashDomain, Domain: "rack0", Stagger: 10 * uqsim.Millisecond},
		{At: 900 * uqsim.Millisecond, Kind: uqsim.RecoverDomain, Domain: "rack0", Stagger: 10 * uqsim.Millisecond},
	}}); err != nil {
		panic(err)
	}
	mon := uqsim.NewMonitor(s, 100*uqsim.Millisecond)
	rackUp := mon.WatchGauge("rack0.up", func(uqsim.Time) float64 { return s.DomainUp("rack0") })
	mon.Start()
	rep, err := s.Run(100*uqsim.Millisecond, uqsim.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("goodput=%.0f unreachable=%d dropped=%d leaked=%d\n",
		rep.GoodputQPS, s.Net().Unreachable(), rep.Dropped, uqsim.Leaked(rep))
	for _, p := range rackUp.Points() {
		fmt.Printf("t=%4.0fms rack0.up=%.1f\n", p.T.Millis(), p.V)
	}
	// Output:
	// goodput=578 unreachable=191 dropped=205 leaked=0
	// t= 100ms rack0.up=1.0
	// t= 200ms rack0.up=1.0
	// t= 300ms rack0.up=1.0
	// t= 400ms rack0.up=1.0
	// t= 500ms rack0.up=1.0
	// t= 600ms rack0.up=1.0
	// t= 700ms rack0.up=0.5
	// t= 800ms rack0.up=0.0
	// t= 900ms rack0.up=0.5
	// t=1000ms rack0.up=1.0
	// t=1100ms rack0.up=1.0
}

// ExampleSim_SetGeography spreads a geo-replicated store over three
// regions with the client homed in east, then crashes east over the
// diurnal peak. Nearest-healthy-region routing moves the traffic to west,
// whose reads are stale until the control plane's region failover
// promotes it. The naive-versus-mitigated comparison is
// `uqsim experiments regionloss`.
func ExampleSim_SetGeography() {
	const warmup, dur = 300 * uqsim.Millisecond, 2 * uqsim.Second
	const crash, heal = warmup + dur/5, warmup + 3*dur/5
	s := uqsim.New(uqsim.Options{Seed: 42})
	for _, m := range []string{"e0", "w0", "eu0"} {
		s.AddMachine(m, 4, uqsim.FreqSpec{})
	}
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
	if _, err := s.Deploy(uqsim.SingleStageService("store", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin,
		uqsim.Placement{Machine: "e0", Cores: 2},
		uqsim.Placement{Machine: "w0", Cores: 1},
		uqsim.Placement{Machine: "eu0", Cores: 1},
	); err != nil {
		panic(err)
	}
	if err := s.SetReplication("store", uqsim.ReplicationSpec{Lag: 30 * uqsim.Millisecond}); err != nil {
		panic(err)
	}
	if err := s.SetTopology(uqsim.LinearTopology("main", "store")); err != nil {
		panic(err)
	}
	s.SetClient(uqsim.ClientConfig{
		Region: "east",
		// The phase puts the diurnal peak in the middle of the outage.
		Pattern: uqsim.Diurnal{Base: 800, Amplitude: 300, Period: dur,
			Phase: math.Pi/2 - math.Pi*float64(crash+heal)/float64(dur)},
		Timeout:    100 * uqsim.Millisecond,
		MaxRetries: 1,
	})
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: crash, Kind: uqsim.CrashDomain, Domain: "east"},
		{At: heal, Kind: uqsim.RecoverDomain, Domain: "east"},
	}}); err != nil {
		panic(err)
	}
	plane, err := uqsim.AttachControl(s, uqsim.ControlConfig{
		Detector: &uqsim.DetectorConfig{Period: 5 * uqsim.Millisecond},
		RegionFailover: &uqsim.RegionFailoverConfig{
			CheckInterval: 5 * uqsim.Millisecond, DrainDelay: 20 * uqsim.Millisecond,
		},
	})
	if err != nil {
		panic(err)
	}
	rep, err := s.Run(warmup, dur)
	if err != nil {
		panic(err)
	}
	plane.Stop()
	st := plane.Stats()
	fmt.Printf("goodput=%.0f xregion=%d stale=%d leaked=%d\n",
		rep.GoodputQPS, rep.CrossRegionCalls, rep.StaleReads, uqsim.Leaked(rep))
	fmt.Printf("region losses=%d failovers=%d restores=%d\n",
		st.RegionLosses, st.RegionFailovers, st.RegionRestores)
	dep, _ := s.Deployment("store")
	if at, ok := dep.PromotedAt("west"); ok {
		fmt.Printf("west promoted %v after the crash\n", at-crash)
	}
	// Output:
	// goodput=796 xregion=863 stale=64 leaked=0
	// region losses=1 failovers=1 restores=1
	// west promoted 30.000ms after the crash
}

// ExampleAttachControl runs the self-healing control plane against two
// incidents on one service: an instance killed outright, which heartbeat
// detection notices and fails over onto a machine with free cores, and a
// machine silently clocked down, which only latency-quantile ejection
// sees. Ejection needs call results, so the example points the call-result
// hook at the plane. The per-mechanism study is
// `uqsim experiments selfhealing`.
func ExampleAttachControl() {
	s := uqsim.New(uqsim.Options{Seed: 11})
	var places []uqsim.Placement
	for _, m := range []string{"m0", "m1", "m2", "m3"} {
		s.AddMachine(m, 2, uqsim.DefaultFreqSpec)
		places = append(places, uqsim.Placement{Machine: m, Cores: 1})
	}
	if _, err := s.Deploy(uqsim.SingleStageService("api", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin, places...); err != nil {
		panic(err)
	}
	if err := s.SetTopology(uqsim.LinearTopology("main", "api")); err != nil {
		panic(err)
	}
	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(1500)})
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: 0, Kind: uqsim.DegradeFreq, Machine: "m1", FreqMHz: uqsim.DefaultFreqSpec.MinMHz},
		{At: 500 * uqsim.Millisecond, Kind: uqsim.KillInstance, Service: "api", Instance: 0},
	}}); err != nil {
		panic(err)
	}
	plane, err := uqsim.AttachControl(s, uqsim.ControlConfig{
		Detector: &uqsim.DetectorConfig{Period: 5 * uqsim.Millisecond},
		Failover: &uqsim.FailoverConfig{RestartDelay: 20 * uqsim.Millisecond},
		Ejection: &uqsim.EjectionConfig{Interval: 50 * uqsim.Millisecond, Probation: uqsim.Second},
	})
	if err != nil {
		panic(err)
	}
	s.OnCallResult = plane.ObserveCall
	rep, err := s.Run(200*uqsim.Millisecond, uqsim.Second)
	if err != nil {
		panic(err)
	}
	plane.Stop()
	st := plane.Stats()
	fmt.Printf("goodput=%.0f p99=%v leaked=%d\n", rep.GoodputQPS, rep.Latency.P99(), uqsim.Leaked(rep))
	fmt.Printf("detected=%d failovers=%d ejected=%d\n", st.Detections, st.Failovers, st.Ejections)
	// Output:
	// goodput=1461 p99=17.958ms leaked=0
	// detected=1 failovers=1 ejected=3
}
