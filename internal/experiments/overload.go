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
	Registry["overload"] = Overload
}

// overloadSLO is the end-to-end latency objective shared by every
// configuration in the sweep: the baseline client abandons requests this
// old, the graceful configurations carry it as a propagated deadline
// budget instead.
const overloadSLO = 20 * des.Millisecond

// overloadInstances sets the service capacity: one-core instances with
// exponential 1ms service time, ≈1000 QPS each.
const overloadInstances = 2

// overloadScenario builds the shared substrate — one service, exponential
// 1ms request cost across one-core instances split over two machines —
// driven open-loop at qps. The knobs (budget, queue discipline, hedging)
// are layered on by the caller.
func overloadScenario(seed uint64, qps float64) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	placements := make([]sim.Placement, 0, overloadInstances)
	for i := 0; i < overloadInstances; i++ {
		m := fmt.Sprintf("m%d", i%2)
		placements = append(placements, sim.Placement{Machine: m, Cores: 1})
	}
	s.AddMachine("m0", 2, cluster.FreqSpec{})
	s.AddMachine("m1", 2, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(des.Millisecond))),
		sim.RoundRobin, placements...); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		return nil, err
	}
	return s, nil
}

// Overload demonstrates graceful degradation under sustained overload.
// Three configurations sweep offered load from 0.5× to 1.5× of saturation:
//
//   - fifo-baseline: FIFO queues and a client that abandons requests older
//     than the SLO, but no deadline propagation — the server keeps serving
//     requests nobody is waiting for. Past saturation the backlog outgrows
//     the client's patience and goodput collapses toward zero.
//   - deadline-codel-lifo: the same SLO carried as a propagated budget;
//     expired requests cancel their queued work, and a CoDel-governed
//     adaptive-LIFO queue serves the freshest (still-live) work first.
//     Goodput holds near capacity however far past saturation the load goes.
//   - deadline-codel-lifo-hedge: adds a p95 latency hedge on the edge,
//     trimming the served tail by racing a backup on the other instance.
func Overload(o Opts) (*Table, error) {
	t := NewTable("Overload — graceful degradation via deadlines, CoDel-LIFO admission, and hedging",
		"config", "load_x", "offered_qps", "goodput_qps", "p99_ms",
		"deadline", "shed", "timeouts", "hedges", "wasted", "canceled", "leaked")
	t.Note = fmt.Sprintf("capacity ≈%d QPS, SLO %v: leaked must be 0 in every cell "+
		"(arrivals == completions + timeouts + deadline + shed + dropped + in-flight)",
		overloadInstances*1000, overloadSLO)
	w, d := o.window(200*des.Millisecond, 2*des.Second)

	capacity := float64(overloadInstances * 1000)
	configs := []struct {
		label    string
		budget   bool
		queue    bool
		hedge    bool
		clientTO des.Time
	}{
		{label: "fifo-baseline", clientTO: overloadSLO},
		{label: "deadline-codel-lifo", budget: true, queue: true},
		{label: "deadline-codel-lifo-hedge", budget: true, queue: true, hedge: true},
	}
	for _, c := range configs {
		for _, loadX := range o.thin([]float64{0.5, 0.75, 1.0, 1.25, 1.5}) {
			qps := capacity * loadX
			s, err := overloadScenario(o.Seed, qps)
			if err != nil {
				return nil, err
			}
			cfg := sim.ClientConfig{Pattern: workload.ConstantRate(qps), Timeout: c.clientTO}
			if c.budget {
				cfg.Budget = dist.NewDeterministic(float64(overloadSLO))
			}
			s.SetClient(cfg)
			if c.queue {
				if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{
					Kind:   fault.QueueCoDelLIFO,
					Target: 5 * des.Millisecond,
				}); err != nil {
					return nil, err
				}
			}
			if c.hedge {
				if err := s.SetServicePolicy("svc", fault.Policy{
					Hedge: &fault.HedgeSpec{Quantile: 0.95, MinSamples: 32},
				}); err != nil {
					return nil, err
				}
			}
			rep, err := measure(s, w, d)
			if err != nil {
				return nil, err
			}
			t.Add(c.label,
				fmt.Sprintf("%.2f", loadX),
				fmt.Sprintf("%.0f", qps),
				fmt.Sprintf("%.0f", rep.GoodputQPS),
				fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
				fmt.Sprintf("%d", rep.DeadlineExpired),
				fmt.Sprintf("%d", rep.Shed),
				fmt.Sprintf("%d", rep.Timeouts),
				fmt.Sprintf("%d", rep.HedgesIssued),
				fmt.Sprintf("%d", rep.WastedWork),
				fmt.Sprintf("%d", rep.CanceledWork),
				fmt.Sprintf("%d", validate.Leaked(rep)))
		}
	}
	return t, nil
}
