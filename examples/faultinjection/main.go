// Fault injection: kill an instance of a replicated service under load,
// crash and recover a whole machine, and watch per-edge resilience policies
// (attempt timeouts, backoff retries, a circuit breaker) and queue-length
// load shedding absorb the damage. The same seed and fault plan always
// reproduce the same run, so availability incidents become regression
// tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"uqsim"
)

// build assembles a two-machine service (one 1-core instance per machine,
// ≈1000 QPS capacity each) driven at qps.
func build(qps float64) *uqsim.Sim {
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
	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(qps)})
	return s
}

func report(label string, rep *uqsim.Report) {
	fmt.Printf("%-22s goodput=%5.0f qps  p99=%8.3f ms  retries=%-5d shed=%-5d dropped=%-5d leaked=%d\n",
		label, rep.GoodputQPS, rep.Latency.P99().Millis(),
		rep.Retries, rep.Shed, rep.Dropped, uqsim.Leaked(rep))
	if ec := rep.Errors["api"]; ec != nil {
		fmt.Printf("%-22s api call errors: timeouts=%d dropped=%d breaker_open=%d\n",
			"", ec.Timeouts, ec.Dropped, ec.BreakerOpen)
	}
}

func main() {
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, report partial results, exit nonzero")
	flag.Parse()
	wd := uqsim.StartWatchdog(*maxWall)
	defer func() {
		if wd.Interrupted() {
			fmt.Fprintf(os.Stderr, "%s: interrupted (%s)\n", "faultinjection", wd.Reason())
			os.Exit(1)
		}
	}()

	// The incident: machine m1 crashes at t=2s and stays dark for 500ms,
	// taking one of the two api instances (and its in-flight work) with it.
	plan := uqsim.FaultPlan{Events: []uqsim.FaultEvent{
		{At: 2 * uqsim.Second, Kind: uqsim.CrashMachine, Machine: "m1"},
		{At: 2*uqsim.Second + 500*uqsim.Millisecond, Kind: uqsim.RecoverMachine, Machine: "m1"},
	}}

	// Unprotected: requests in flight on m1 at the crash die, and their
	// callers hear nothing until the client gives up.
	s := build(1200)
	if err := s.InstallFaults(plan); err != nil {
		panic(err)
	}
	rep, err := s.Run(uqsim.Second, 4*uqsim.Second)
	if err != nil {
		panic(err)
	}
	report("unprotected", rep)

	// Guarded: a per-edge policy retries dead attempts against the healthy
	// survivor after jittered exponential backoff, and a breaker fails
	// calls fast if the edge's error rate spikes.
	s = build(1200)
	if err := s.SetServicePolicy("api", uqsim.ResiliencePolicy{
		Timeout:       50 * uqsim.Millisecond,
		MaxRetries:    3,
		BackoffBase:   5 * uqsim.Millisecond,
		BackoffJitter: 0.5,
		Breaker:       &uqsim.BreakerSpec{ErrorThreshold: 0.5, Window: 20, Cooldown: 100 * uqsim.Millisecond},
	}); err != nil {
		panic(err)
	}
	if err := s.InstallFaults(plan); err != nil {
		panic(err)
	}
	if rep, err = s.Run(uqsim.Second, 4*uqsim.Second); err != nil {
		panic(err)
	}
	report("retries+breaker", rep)

	// Overload is a different failure mode: at 2× capacity an unbounded
	// queue grows forever, so bound it and shed the excess instead.
	s = build(4000)
	if err := s.SetMaxQueue("api", 64); err != nil {
		panic(err)
	}
	if rep, err = s.Run(uqsim.Second, 4*uqsim.Second); err != nil {
		panic(err)
	}
	report("2x-load shed-at-64", rep)
}
