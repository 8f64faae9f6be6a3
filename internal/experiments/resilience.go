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
	"uqsim/internal/workload"
)

// oneService builds the one-service scenario of resilience, overload and
// selfhealing: a service "svc" with exponential 1ms request cost,
// round-robin over perMachine instances of instCores cores on each of
// machines m0..m<machines-1> (cores cores at freq each), driven
// open-loop at qps. A one-core instance serves ≈1000 QPS.
func oneService(seed uint64, qps float64, freq cluster.FreqSpec, machines, cores, perMachine, instCores int) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	placements := make([]sim.Placement, 0, machines*perMachine)
	for i := range machines {
		m := fmt.Sprintf("m%d", i)
		s.AddMachine(m, cores, freq)
		for range perMachine {
			placements = append(placements, sim.Placement{Machine: m, Cores: instCores})
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

// faulted sets policy on svc when there is one and installs events.
func faulted(s *sim.Sim, err error, policy *fault.Policy, events ...fault.Event) (*sim.Sim, error) {
	if err == nil && policy != nil {
		err = s.SetServicePolicy("svc", *policy)
	}
	if err == nil {
		err = s.InstallFaults(fault.Plan{Events: events})
	}
	return s, err
}

// resilience demonstrates the fault-injection subsystem end to end:
// (a) an instance outage under retrying callers — immediate retries storm
// the surviving instance while exponential backoff lets it drain;
// (b) a machine crash plus recovery with retry masking — the availability
// dip is absorbed with no leaked requests;
// (c) 2× overload with and without queue-length load shedding — shedding
// trades goodput you cannot serve anyway for a bounded tail.
var resilience = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(200*des.Millisecond, 2*des.Second)
		add := func(part, scenario string, build func() (*sim.Sim, error)) {
			cells = append(cells, Cell{Label: []string{part, scenario}, Warmup: w, Window: d, Build: build})
		}

		// (a) Retry amplification: kill one of two instances for 15% of the
		// window at 60% total load. The survivor runs at 1.2× capacity, its
		// queue crosses the edge timeout, and every abandoned attempt still
		// burns server time — with no backoff each timeout immediately
		// becomes another attempt on the overloaded survivor (the classic
		// storm), while backoff spreads the re-offered load and a breaker
		// stops offering it.
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
			add("a:instance-outage", c.label, func() (*sim.Sim, error) {
				s, err := oneService(o.Seed, 1200, cluster.FreqSpec{}, 1, 4, 2, 1)
				return faulted(s, err, c.policy,
					fault.Event{At: kill, Kind: fault.KillInstance, Service: "svc", Instance: 0},
					fault.Event{At: restart, Kind: fault.RestartInstance, Service: "svc", Instance: 0})
			})
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
			add("b:machine-crash", c.label, func() (*sim.Sim, error) {
				s, err := oneService(o.Seed, 1200, cluster.FreqSpec{}, 2, 2, 1, 1)
				return faulted(s, err, c.policy,
					fault.Event{At: crash, Kind: fault.CrashMachine, Machine: "m1"},
					fault.Event{At: recover, Kind: fault.RecoverMachine, Machine: "m1"})
			})
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
			add("c:2x-overload", c.label, func() (*sim.Sim, error) {
				s, err := oneService(o.Seed, 2000, cluster.FreqSpec{}, 1, 2, 1, 1)
				if err == nil && c.maxQueue > 0 {
					err = s.SetMaxQueue("svc", c.maxQueue)
				}
				return s, err
			})
		}
		return cells
	},
	Reduce: rows("Resilience — retry storms, crash recovery, load shedding",
		"leaked must be 0: arrivals == completions + timeouts + shed + dropped + in-flight",
		"part", "scenario", "goodput_qps", "p99_ms", "retries", "shed", "dropped", "leaked"),
}
