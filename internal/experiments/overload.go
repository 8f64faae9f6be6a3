package experiments

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// overloadSLO is the end-to-end latency objective shared by every
// configuration in the sweep: the baseline client abandons requests this
// old, the graceful configurations carry it as a propagated deadline
// budget instead.
const overloadSLO = 20 * des.Millisecond

// overloadInstances sets the service capacity: one-core instances with
// exponential 1ms service time, ≈1000 QPS each.
const overloadInstances = 2

// overload demonstrates graceful degradation under sustained overload.
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
var overload = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(200*des.Millisecond, 2*des.Second)
		capacity := float64(overloadInstances * 1000)
		for _, c := range []struct {
			label    string
			budget   bool
			queue    bool
			hedge    bool
			clientTO des.Time
		}{
			{label: "fifo-baseline", clientTO: overloadSLO},
			{label: "deadline-codel-lifo", budget: true, queue: true},
			{label: "deadline-codel-lifo-hedge", budget: true, queue: true, hedge: true},
		} {
			for _, loadX := range o.thin([]float64{0.5, 0.75, 1.0, 1.25, 1.5}) {
				qps := capacity * loadX
				cells = append(cells, Cell{Label: []string{c.label, fmt.Sprintf("%.2f", loadX), f0(qps)},
					Warmup: w, Window: d, Build: func() (*sim.Sim, error) {
						s, err := oneService(o.Seed, qps, cluster.FreqSpec{}, overloadInstances, 2, 1, 1)
						if err != nil {
							return nil, err
						}
						cfg := sim.ClientConfig{Pattern: workload.ConstantRate(qps), Timeout: c.clientTO}
						if c.budget {
							cfg.Budget = dist.NewDeterministic(float64(overloadSLO))
						}
						s.SetClient(cfg)
						if c.queue {
							err = s.SetQueueDiscipline("svc", fault.QueueDiscipline{
								Kind:   fault.QueueCoDelLIFO,
								Target: 5 * des.Millisecond,
							})
						}
						if err == nil && c.hedge {
							err = s.SetServicePolicy("svc", fault.Policy{
								Hedge: &fault.HedgeSpec{Quantile: 0.95, MinSamples: 32},
							})
						}
						return s, err
					}})
			}
		}
		return cells
	},
	Reduce: rows("Overload — graceful degradation via deadlines, CoDel-LIFO admission, and hedging",
		fmt.Sprintf("capacity ≈%d QPS, SLO %v: leaked must be 0 in every cell "+
			"(arrivals == completions + timeouts + deadline + shed + dropped + in-flight)",
			overloadInstances*1000, overloadSLO),
		"config", "load_x", "offered_qps", "goodput_qps", "p99_ms",
		"deadline", "shed", "timeouts", "hedges", "wasted", "canceled", "leaked"),
}
