package uqsim_test

import (
	"fmt"
	"sort"

	"uqsim"
)

// Example builds a minimal M/M/2 service and measures its latency — the
// smallest complete µqSim program. ExampleTwoTier runs a prebuilt model
// of the paper's applications instead.
func Example() {
	s := uqsim.New(uqsim.Options{Seed: 1})
	s.AddMachine("m0", 8, uqsim.DefaultFreqSpec)
	if _, err := s.Deploy(
		uqsim.SingleStageService("api", uqsim.Exponential(100*uqsim.Microsecond)),
		uqsim.RoundRobin,
		uqsim.Placement{Machine: "m0", Cores: 2},
	); err != nil {
		panic(err)
	}
	if err := s.SetTopology(uqsim.LinearTopology("main", "api")); err != nil {
		panic(err)
	}
	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(5000)})
	rep, err := s.Run(uqsim.Second/5, uqsim.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completions=%d mean=%v p99=%v\n",
		rep.Completions, rep.Latency.Mean(), rep.Latency.P99())
	// Output:
	// completions=5047 mean=108.255us p99=488.692us
}

// ExampleTwoTier sweeps the paper's two-tier NGINX→memcached application
// toward its ~70k QPS saturation point. The full load–latency curve is
// `uqsim experiments fig5`.
func ExampleTwoTier() {
	fmt.Println("offered_qps goodput_qps p50_ms p99_ms")
	for _, qps := range []float64{10000, 40000, 70000} {
		s, err := uqsim.TwoTier(uqsim.TwoTierConfig{
			Seed: 1, QPS: qps, NginxCores: 8, MemcachedThreads: 4, Network: true,
		})
		if err != nil {
			panic(err)
		}
		rep, err := s.Run(100*uqsim.Millisecond, 300*uqsim.Millisecond)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11.0f %-11.0f %-6.3f %.3f\n", qps, rep.GoodputQPS,
			rep.Latency.P50().Millis(), rep.Latency.P99().Millis())
	}
	// Output:
	// offered_qps goodput_qps p50_ms p99_ms
	// 10000       10180       0.161  0.281
	// 40000       40287       0.168  0.298
	// 70000       70640       0.370  1.264
}

// ExampleSocialNetwork runs the paper's end-to-end Social Network (a
// Thrift frontend fanning out to user and post tiers, each caching in
// memcached and persisting in MongoDB) and breaks its latency down per
// tier. The load sweep is `uqsim experiments fig12b`.
func ExampleSocialNetwork() {
	s, err := uqsim.SocialNetwork(uqsim.SocialNetworkConfig{
		Seed: 1, QPS: 3000, CacheHitProb: 0.85, MediaProb: 0.5, Network: true,
	})
	if err != nil {
		panic(err)
	}
	rep, err := s.Run(100*uqsim.Millisecond, 300*uqsim.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Printf("goodput=%.0f qps p99=%v\n", rep.GoodputQPS, rep.Latency.P99())
	var tiers []string
	for name := range rep.PerTier {
		tiers = append(tiers, name)
	}
	sort.Strings(tiers)
	for _, name := range tiers {
		h := rep.PerTier[name]
		fmt.Printf("%-12s requests=%-5d mean=%v\n", name, h.Count(), h.Mean())
	}
	// Output:
	// goodput=2960 qps p99=16.591ms
	// frontend     requests=888   mean=75.724us
	// media        requests=449   mean=20.181us
	// mediamc      requests=449   mean=7.045us
	// mediamongo   requests=79    mean=3.324ms
	// netproc      requests=888   mean=67.880us
	// post         requests=888   mean=20.504us
	// postmc       requests=888   mean=7.056us
	// postmongo    requests=127   mean=4.589ms
	// user         requests=888   mean=20.350us
	// usermc       requests=888   mean=7.033us
	// usermongo    requests=133   mean=3.928ms
}

// ExampleTailAtScale fans every request out to the whole cluster: at
// light load, 1% of 10×-slow servers come to own the p99 once the cluster
// is large. The full grid of sizes and fractions is
// `uqsim experiments fig14`.
func ExampleTailAtScale() {
	fmt.Println("servers p99_ms_0pct_slow p99_ms_1pct_slow")
	for _, n := range []int{100, 500} {
		fmt.Printf("%7d", n)
		for _, slow := range []float64{0, 0.01} {
			s, err := uqsim.TailAtScale(uqsim.TailAtScaleConfig{
				Seed: 1, QPS: 50, Servers: n, SlowFraction: slow,
			})
			if err != nil {
				panic(err)
			}
			rep, err := s.Run(0, 2*uqsim.Second)
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %16.2f", rep.Latency.P99().Millis())
		}
		fmt.Println()
	}
	// Output:
	// servers p99_ms_0pct_slow p99_ms_1pct_slow
	//     100            10.11            56.20
	//     500            10.52            64.53
}

// ExampleNewTracer traces every fourth Social Network request near
// saturation, prints the slowest one's waterfall, and counts which tier
// was on the critical path, sorted by service. `uqsim trace` does the
// same for any config directory.
func ExampleNewTracer() {
	s, err := uqsim.SocialNetwork(uqsim.SocialNetworkConfig{Seed: 1, QPS: 3500, Network: true})
	if err != nil {
		panic(err)
	}
	tr := uqsim.NewTracer(4)
	uqsim.AttachTracer(s, tr)
	if _, err := s.Run(100*uqsim.Millisecond, 300*uqsim.Millisecond); err != nil {
		panic(err)
	}
	fmt.Print(tr.Slowest(1)[0].Waterfall())
	counts := map[string]int{}
	for _, r := range tr.Traces() {
		if crit, ok := r.CriticalSpan(); ok {
			counts[crit.Service]++
		}
	}
	var svcs []string
	for svc := range counts {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	fmt.Println("critical tier frequency:")
	for _, svc := range svcs {
		fmt.Printf("  %-12s %d\n", svc, counts[svc])
	}
	// Output:
	// request 752 (class 2): 218.982ms → 243.197ms  latency 24.215ms
	//    5.444us..43.887us  frontend       @frontend-0     node=0 residence=38.443us
	//   51.735us..70.325us  user           @user-0         node=1 residence=18.590us
	//   64.301us..92.550us  post           @post-0         node=3 residence=28.249us
	//   70.325us..76.265us  usermc         @usermc-0       node=2 residence=5.940us
	//   92.550us..99.510us  postmc         @postmc-0       node=4 residence=6.960us
	//   109.829us..138.735us  frontend       @frontend-0     node=5 residence=28.906us
	//   144.111us..168.241us  media          @media-0        node=6 residence=24.130us
	//   168.241us..175.336us  mediamc        @mediamc-0      node=7 residence=7.095us
	//   175.336us..24.162ms  mediamongo     @mediamongo-0   node=8 residence=23.986ms
	//   24.177ms..24.206ms  frontend       @frontend-0     node=9 residence=28.663us
	// critical tier frequency:
	//   frontend     218
	//   media        1
	//   mediamongo   32
	//   post         9
	//   postmongo    38
	//   user         5
	//   usermongo    45
}

// ExampleNewPowerManager wires the paper's Algorithm 1 DVFS controller
// onto the two-tier application. The decision-interval study under a
// diurnal load is `uqsim experiments table3` (and fig15, fig16).
func ExampleNewPowerManager() {
	s, err := uqsim.TwoTier(uqsim.TwoTierConfig{Seed: 1, QPS: 5000, Network: true})
	if err != nil {
		panic(err)
	}
	tiers, err := uqsim.TiersOf(s, "nginx", "memcached")
	if err != nil {
		panic(err)
	}
	mgr, err := uqsim.NewPowerManager(s, uqsim.PowerConfig{
		Target:   5 * uqsim.Millisecond,
		Interval: 100 * uqsim.Millisecond,
	}, tiers)
	if err != nil {
		panic(err)
	}
	s.OnRequestDone = mgr.Observe
	mgr.Start()
	if _, err := s.Run(0, 5*uqsim.Second); err != nil {
		panic(err)
	}
	// Light load: the controller saves energy while meeting QoS.
	fmt.Printf("cycles=%d violations=%.1f%% mean_freq=%.0fMHz energy=%.3f\n",
		mgr.Cycles(), 100*mgr.ViolationRate(), mgr.MeanFrequency(), mgr.NormalizedEnergy())
	// Output:
	// cycles=50 violations=0.0% mean_freq=2342MHz energy=0.743
}

// ExampleNewMonitor samples queue lengths and core utilization while a
// diurnal load swings the two-tier application past its capacity: NGINX
// queues build through the peak and drain after it.
func ExampleNewMonitor() {
	s, err := uqsim.TwoTier(uqsim.TwoTierConfig{
		Seed: 1,
		Pattern: uqsim.Diurnal{
			Base: 45000, Amplitude: 35000, Period: 2 * uqsim.Second, Floor: 2000,
		},
		Network: true,
	})
	if err != nil {
		panic(err)
	}
	mon := uqsim.NewMonitor(s, 200*uqsim.Millisecond)
	for _, name := range []string{"nginx", "memcached"} {
		dep, _ := s.Deployment(name)
		for _, in := range dep.Instances {
			mon.Watch(in.Name, in)
		}
	}
	mon.Start()
	if _, err := s.Run(0, 2*uqsim.Second); err != nil {
		panic(err)
	}
	fmt.Println("t_s  nginx_qlen nginx_util memcached_util")
	ng, mc := mon.AllSeries()[0], mon.AllSeries()[1]
	for i, p := range ng.QueueLen.Points() {
		fmt.Printf("%-4.1f %-10.0f %-10.3f %.3f\n",
			p.T.Seconds(), p.V, ng.Util.Points()[i].V, mc.Util.Points()[i].V)
	}
	// Output:
	// t_s  nginx_qlen nginx_util memcached_util
	// 0.2  0          0.796      0.095
	// 0.4  303        0.886      0.109
	// 0.6  310        0.922      0.114
	// 0.8  309        0.940      0.117
	// 1.0  0          0.922      0.115
	// 1.2  0          0.851      0.105
	// 1.4  0          0.767      0.094
	// 1.6  0          0.690      0.085
	// 1.8  0          0.642      0.079
	// 2.0  0          0.627      0.077
}

// ExampleSim_SetHybrid drives a session population (a two-step browse
// journey plus a flash crowd) first at full fidelity, then with a sampled
// foreground over a fluid M/M/k background, then at a million users with
// the deployment grown to match. The million-user tail is shorter because
// one instance with 16,528 cores queues far less than one with 4 at the
// same utilization. The wall-clock comparison is
// `uqsim experiments millionuser`.
func ExampleSim_SetHybrid() {
	const baseUsers, baseCores = 242, 4
	build := func(users, cores int) *uqsim.Sim {
		s := uqsim.New(uqsim.Options{Seed: 42})
		s.AddMachine("m0", cores, uqsim.DefaultFreqSpec)
		if _, err := s.Deploy(
			uqsim.SingleStageService("front", uqsim.Exponential(10*uqsim.Millisecond)),
			uqsim.RoundRobin, uqsim.Placement{Machine: "m0", Cores: cores},
		); err != nil {
			panic(err)
		}
		if err := s.SetTopology(uqsim.LinearTopology("main", "front")); err != nil {
			panic(err)
		}
		think := uqsim.Exponential(uqsim.Second)
		s.SetClient(uqsim.ClientConfig{Sessions: &uqsim.SessionConfig{
			Users: users,
			Journeys: []uqsim.Journey{{Name: "browse", Weight: 1, Steps: []uqsim.SessionStep{
				{Tree: 0, Think: think}, {Tree: 0, Think: think},
			}}},
			Crowds: []uqsim.FlashCrowd{{
				At: 2 * uqsim.Second, Extra: users,
				RampUp: uqsim.Second / 2, Hold: uqsim.Second, RampDown: uqsim.Second / 2,
			}},
		}})
		return s
	}
	fmt.Println("fidelity        users   p50_ms p99_ms bg_arrivals")
	for _, row := range []struct {
		label        string
		users, cores int
		sample       float64
	}{
		{"full", baseUsers, baseCores, 0},
		{"hybrid p=0.1", baseUsers, baseCores, 0.1},
		{"hybrid 1M users", 1_000_000, baseCores * (1_000_000 / baseUsers), baseUsers / 1e6},
	} {
		s := build(row.users, row.cores)
		if row.sample > 0 {
			s.SetHybrid(uqsim.HybridConfig{SampleRate: row.sample})
		}
		rep, err := s.Run(uqsim.Second, 3*uqsim.Second)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-15s %-7d %-6.3f %-6.3f %d\n", row.label, row.users,
			rep.Latency.P50().Millis(), rep.Latency.P99().Millis(), rep.BackgroundArrivals)
	}
	// Output:
	// fidelity        users   p50_ms p99_ms bg_arrivals
	// full            242     30.653 235.661 0
	// hybrid p=0.1    242     18.318 226.510 856
	// hybrid 1M users 1000000 7.080  46.459 4069648
}
