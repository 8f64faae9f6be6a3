// Network fault domains: partition a two-machine service so cross-machine
// calls fail fast as unreachable, degrade a link into a lossy "gray" one
// that retries absorb, and crash a whole rack with a staggered burst. A
// monitor records the network-fault counters and the rack's live fraction
// as time series, so the blast radius of each act is visible in the data.
package main

import (
	"flag"
	"fmt"
	"os"

	"uqsim"
)

// build assembles a frontend→backend chain split across two machines, so
// every backend call crosses the m0→m1 network path.
func build(qps float64) *uqsim.Sim {
	s := uqsim.New(uqsim.Options{Seed: 21})
	s.AddMachine("m0", 4, uqsim.DefaultFreqSpec)
	s.AddMachine("m1", 4, uqsim.DefaultFreqSpec)
	must(s.Deploy(uqsim.SingleStageService("front", uqsim.Deterministic(float64(100*uqsim.Microsecond))),
		uqsim.RoundRobin, uqsim.Placement{Machine: "m0", Cores: 2}))
	must(s.Deploy(uqsim.SingleStageService("backend", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin, uqsim.Placement{Machine: "m1", Cores: 2}))
	if err := s.SetTopology(uqsim.LinearTopology("main", "front", "backend")); err != nil {
		panic(err)
	}
	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(qps)})
	return s
}

func must(_ any, err error) {
	if err != nil {
		panic(err)
	}
}

func report(label string, s *uqsim.Sim, rep *uqsim.Report) {
	fmt.Printf("%-18s goodput=%5.0f qps  p99=%7.3f ms  unreachable=%-5d linkdrops=%-5d retries=%-5d leaked=%d\n",
		label, rep.GoodputQPS, rep.Latency.P99().Millis(),
		s.Net().Unreachable(), rep.LinkDrops, rep.Retries, uqsim.Leaked(rep))
}

func main() {
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, report partial results, exit nonzero")
	flag.Parse()
	wd := uqsim.StartWatchdog(*maxWall)
	defer func() {
		if wd.Interrupted() {
			fmt.Fprintf(os.Stderr, "%s: interrupted (%s)\n", "partition", wd.Reason())
			os.Exit(1)
		}
	}()

	// Act 1 — a 300ms symmetric partition between the machines. Cross-
	// machine dispatch fails fast (no timeout wait), so the cut shows up
	// as unreachable attempts, not as a latency cliff.
	s := build(1000)
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{{
		At: uqsim.Second, Until: uqsim.Second + 300*uqsim.Millisecond,
		Kind: uqsim.PartitionStart, GroupA: []string{"m0"}, GroupB: []string{"m1"},
	}}}); err != nil {
		panic(err)
	}
	rep, err := s.Run(uqsim.Second/2, 2*uqsim.Second)
	if err != nil {
		panic(err)
	}
	report("partition", s, rep)

	// Act 2 — the same cut, but the frontend→backend edge retries with
	// backoff. Attempts during the cut still die, yet most requests
	// outlive it: retries land after the heal.
	s = build(1000)
	if err := s.SetServicePolicy("backend", uqsim.ResiliencePolicy{
		Timeout:       50 * uqsim.Millisecond,
		MaxRetries:    4,
		BackoffBase:   80 * uqsim.Millisecond,
		BackoffJitter: 0.3,
	}); err != nil {
		panic(err)
	}
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{{
		At: uqsim.Second, Until: uqsim.Second + 300*uqsim.Millisecond,
		Kind: uqsim.PartitionStart, GroupA: []string{"m0"}, GroupB: []string{"m1"},
	}}}); err != nil {
		panic(err)
	}
	if rep, err = s.Run(uqsim.Second/2, 2*uqsim.Second); err != nil {
		panic(err)
	}
	report("partition+retry", s, rep)

	// Act 3 — no clean cut, just a lossy link: 15% of m0→m1 messages
	// vanish. Gray failures are the ones detectors miss; here retries
	// turn the loss into latency instead of errors.
	s = build(1000)
	if err := s.SetServicePolicy("backend", uqsim.ResiliencePolicy{
		Timeout:     20 * uqsim.Millisecond,
		MaxRetries:  3,
		BackoffBase: uqsim.Millisecond,
	}); err != nil {
		panic(err)
	}
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{{
		At: uqsim.Second, Kind: uqsim.SetLink, Src: "m0", Dst: "m1", Drop: 0.15,
	}}}); err != nil {
		panic(err)
	}
	if rep, err = s.Run(uqsim.Second/2, 2*uqsim.Second); err != nil {
		panic(err)
	}
	report("gray-link", s, rep)

	// Act 4 — a rack failure: m1 and m2 share a failure domain, and the
	// domain crashes as a correlated burst (10ms apart), then recovers.
	// The monitor samples the rack's live fraction alongside the
	// network-fault counters; a crash surfaces as dropped in-flight work
	// in the report, while unreachable stays zero — that counter belongs
	// to partitions, where the machines are alive but cut off.
	s = build(1000)
	s.AddMachine("m2", 4, uqsim.DefaultFreqSpec)
	if _, err := s.Deploy(uqsim.SingleStageService("spare", uqsim.Exponential(uqsim.Millisecond)),
		uqsim.RoundRobin, uqsim.Placement{Machine: "m2", Cores: 1}); err != nil {
		panic(err)
	}
	if err := s.SetDomains([]uqsim.FailureDomain{{Name: "rack0", Machines: []string{"m1", "m2"}}}); err != nil {
		panic(err)
	}
	if err := s.InstallFaults(uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: uqsim.Second, Kind: uqsim.CrashDomain, Domain: "rack0", Stagger: 10 * uqsim.Millisecond},
		{At: uqsim.Second + 400*uqsim.Millisecond, Kind: uqsim.RecoverDomain, Domain: "rack0", Stagger: 10 * uqsim.Millisecond},
	}}); err != nil {
		panic(err)
	}
	mon := uqsim.NewMonitor(s, 100*uqsim.Millisecond)
	unreach, _, _ := mon.WatchNet("net", s.Net())
	rackUp := mon.WatchGauge("rack0.up", func(uqsim.Time) float64 { return s.DomainUp("rack0") })
	mon.Start()
	if rep, err = s.Run(uqsim.Second/2, 2*uqsim.Second); err != nil {
		panic(err)
	}
	report("rack-crash", s, rep)
	fmt.Printf("%-18s dropped=%d  unreachable-series-final=%.0f\n",
		"", rep.Dropped, last(unreach.Points()))
	fmt.Println("\nrack0 live fraction over time:")
	for _, p := range rackUp.Points() {
		fmt.Printf("  t=%5.0fms  rack0.up=%.1f\n", p.T.Millis(), p.V)
	}
}

func last(pts []uqsim.TimeSeriesPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].V
}
