package experiments

import (
	"fmt"

	"uqsim/internal/cluster"
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
	Registry["resilience"] = Resilience
}

// resilienceScenario builds one service with exponential 1ms request cost
// spread across instances (one core each, ≈1000 QPS capacity per instance),
// driven open-loop at qps.
func resilienceScenario(seed uint64, qps float64, machines []string, perMachine int) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	placements := make([]sim.Placement, 0, len(machines)*perMachine)
	for _, m := range machines {
		s.AddMachine(m, 2*perMachine, cluster.FreqSpec{})
		for i := 0; i < perMachine; i++ {
			placements = append(placements, sim.Placement{Machine: m, Cores: 1})
		}
	}
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(des.Millisecond))),
		sim.RoundRobin, placements...); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		return nil, err
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(qps)})
	return s, nil
}

// Resilience demonstrates the fault-injection subsystem end to end:
// (a) an instance outage under retrying callers — immediate retries storm
// the surviving instance while exponential backoff lets it drain;
// (b) a machine crash plus recovery with retry masking — the availability
// dip is absorbed with no leaked requests;
// (c) 2× overload with and without queue-length load shedding — shedding
// trades goodput you cannot serve anyway for a bounded tail.
func Resilience(o Opts) (*Table, error) {
	t := NewTable("Resilience — retry storms, crash recovery, load shedding",
		"part", "scenario", "goodput_qps", "p99_ms", "retries", "shed", "dropped", "leaked")
	t.Note = "leaked must be 0: arrivals == completions + timeouts + shed + dropped + in-flight"
	w, d := o.window(200*des.Millisecond, 2*des.Second)

	addRow := func(part, scenario string, rep *sim.Report) {
		t.Add(part, scenario,
			fmt.Sprintf("%.0f", rep.GoodputQPS),
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmt.Sprintf("%d", rep.Retries),
			fmt.Sprintf("%d", rep.Shed),
			fmt.Sprintf("%d", rep.Dropped),
			fmt.Sprintf("%d", validate.Leaked(rep)))
	}

	// (a) Retry amplification: kill one of two instances for 15% of the
	// window at 60% total load. The survivor runs at 1.2× capacity, its
	// queue crosses the edge timeout, and every abandoned attempt still
	// burns server time — with no backoff each timeout immediately becomes
	// another attempt on the overloaded survivor (the classic storm), while
	// backoff spreads the re-offered load and a breaker stops offering it.
	kill := w + des.Time(float64(d)*0.3)
	restart := kill + des.Time(float64(d)*0.15)
	for _, c := range []struct {
		label  string
		policy *fault.Policy
	}{
		{"no-policy", nil},
		{"retry-no-backoff", &fault.Policy{Timeout: 15 * des.Millisecond, MaxRetries: 3}},
		{"retry-backoff-100ms", &fault.Policy{
			Timeout: 15 * des.Millisecond, MaxRetries: 3,
			BackoffBase: 100 * des.Millisecond, BackoffJitter: 0.5}},
		{"retry-plus-breaker", &fault.Policy{
			Timeout: 15 * des.Millisecond, MaxRetries: 3,
			BackoffBase: 100 * des.Millisecond, BackoffJitter: 0.5,
			Breaker: &fault.BreakerSpec{ErrorThreshold: 0.5, Window: 20, Cooldown: 50 * des.Millisecond}}},
	} {
		s, err := resilienceScenario(o.Seed, 1200, []string{"m0"}, 2)
		if err != nil {
			return nil, err
		}
		if c.policy != nil {
			if err := s.SetServicePolicy("svc", *c.policy); err != nil {
				return nil, err
			}
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: kill, Kind: fault.KillInstance, Service: "svc", Instance: 0},
			{At: restart, Kind: fault.RestartInstance, Service: "svc", Instance: 0},
		}}); err != nil {
			return nil, err
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		addRow("a:instance-outage", c.label, rep)
	}

	// (b) Machine crash and recovery: one of two machines (half the
	// capacity) crashes for 5% of the window at 60% total load. Load
	// balancing routes new arrivals around the dead machine either way;
	// the difference is the work in flight on it — dropped without a
	// policy, retried to zero drops with one. Nothing leaks either way.
	crash := w + des.Time(float64(d)*0.4)
	recover := crash + des.Time(float64(d)*0.05)
	for _, c := range []struct {
		label  string
		policy *fault.Policy
	}{
		{"no-policy", nil},
		{"retry-masked", &fault.Policy{
			Timeout: 80 * des.Millisecond, MaxRetries: 3,
			BackoffBase: 5 * des.Millisecond, BackoffJitter: 0.5}},
	} {
		s, err := resilienceScenario(o.Seed, 1200, []string{"m0", "m1"}, 1)
		if err != nil {
			return nil, err
		}
		if c.policy != nil {
			if err := s.SetServicePolicy("svc", *c.policy); err != nil {
				return nil, err
			}
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: crash, Kind: fault.CrashMachine, Machine: "m1"},
			{At: recover, Kind: fault.RecoverMachine, Machine: "m1"},
		}}); err != nil {
			return nil, err
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		addRow("b:machine-crash", c.label, rep)
	}

	// (c) 2× overload: an unbounded queue grows for the whole window, so
	// the tail is the queue; shedding rejects what cannot be served and
	// keeps the tail at the queue bound.
	for _, c := range []struct {
		label    string
		maxQueue int
	}{
		{"unbounded-queue", 0},
		{"shed-at-64", 64},
	} {
		s, err := resilienceScenario(o.Seed, 2000, []string{"m0"}, 1)
		if err != nil {
			return nil, err
		}
		if c.maxQueue > 0 {
			if err := s.SetMaxQueue("svc", c.maxQueue); err != nil {
				return nil, err
			}
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		addRow("c:2x-overload", c.label, rep)
	}
	return t, nil
}
