// Graceful degradation under overload: the same 20ms latency objective
// expressed two ways at 1.5× saturation. As a client timeout, the backlog
// outgrows the caller's patience, the server burns its cores on requests
// nobody is waiting for, and goodput collapses. As a propagated deadline
// budget with CoDel-governed adaptive-LIFO admission and a latency-quantile
// hedge, expired work is cancelled before it wastes service, fresh requests
// are served first, and goodput holds at capacity with every response
// inside the budget.
package main

import (
	"flag"
	"fmt"
	"os"

	"uqsim"
)

const (
	slo      = 20 * uqsim.Millisecond
	capacity = 2000 // two 1-core instances × ≈1000 QPS each
)

// build assembles the shared substrate: one service with exponential 1ms
// request cost on two 1-core instances, driven open-loop at qps.
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
	return s
}

func report(label string, rep *uqsim.Report) {
	fmt.Printf("%-30s goodput=%5.0f qps  p99=%7.3f ms  timeouts=%-5d deadline=%-5d hedges=%-4d wasted=%-5d canceled=%-5d leaked=%d\n",
		label, rep.GoodputQPS, rep.Latency.P99().Millis(),
		rep.Timeouts, rep.DeadlineExpired, rep.HedgesIssued,
		rep.WastedWork, rep.CanceledWork, uqsim.Leaked(rep))
}

func main() {
	maxWall := flag.Duration("max-wall", 0, "stop after this much wall-clock time, report partial results, exit nonzero")
	flag.Parse()
	wd := uqsim.StartWatchdog(*maxWall)
	defer func() {
		if wd.Interrupted() {
			fmt.Fprintf(os.Stderr, "%s: interrupted (%s)\n", "overload", wd.Reason())
			os.Exit(1)
		}
	}()

	qps := 1.5 * capacity
	fmt.Printf("offered load %.0f QPS against ≈%d QPS capacity, SLO %v\n\n", qps, capacity, slo)

	// Baseline: the SLO lives only in the client, which abandons requests
	// older than 20ms. The server has no idea — it serves the FIFO queue
	// in arrival order, mostly requests whose callers are long gone.
	s := build(qps)
	s.SetClient(uqsim.ClientConfig{
		Pattern: uqsim.ConstantRate(qps),
		Timeout: slo,
	})
	rep, err := s.Run(uqsim.Second, 4*uqsim.Second)
	if err != nil {
		panic(err)
	}
	report("fifo + client timeout", rep)

	// Graceful: the same 20ms carried as a deadline budget with the
	// request. Expiry cancels queued work everywhere in the subtree;
	// adaptive LIFO serves the freshest (still-live) work first while the
	// queue is stale; a p95 hedge races a backup on the other instance
	// when the primary is slow.
	s = build(qps)
	s.SetClient(uqsim.ClientConfig{
		Pattern: uqsim.ConstantRate(qps),
		Budget:  uqsim.Deterministic(float64(slo)),
	})
	if err := s.SetQueueDiscipline("api", uqsim.QueueDiscipline{
		Kind:   uqsim.QueueCoDelLIFO,
		Target: 5 * uqsim.Millisecond,
	}); err != nil {
		panic(err)
	}
	if err := s.SetServicePolicy("api", uqsim.ResiliencePolicy{
		Hedge: &uqsim.HedgeSpec{Quantile: 0.95, MinSamples: 32},
	}); err != nil {
		panic(err)
	}
	if rep, err = s.Run(uqsim.Second, 4*uqsim.Second); err != nil {
		panic(err)
	}
	report("deadline + codel-lifo + hedge", rep)
}
