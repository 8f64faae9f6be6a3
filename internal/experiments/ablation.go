package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/service"
	"uqsim/internal/sim"
)

// ablationBatching quantifies design decision #1 of DESIGN.md: disabling
// the epoll/socket batch amortization (processing every job individually,
// full base cost each time) lowers the saturation throughput — the same
// modelling gap the BigHouse comparison exposes, isolated inside µqSim.
var ablationBatching = Spec{
	Cells: func(o Opts) (cells []Cell) {
		base := apps.Memcached()
		for _, c := range []struct {
			label string
			bp    *service.Blueprint
		}{{"batched (µqSim)", base}, {"unbatched (ablated)", disableBatching(base)}} {
			cells = append(cells, saturation(o, []string{c.label}, func() (*sim.Sim, error) {
				return apps.SingleService(c.bp, "memcached_read", 4, 900000, o.Seed, nil)
			}))
		}
		return cells
	},
	Reduce: rows("Ablation — epoll batch amortization",
		"batching amortizes per-dispatch base costs; without it capacity drops",
		"model", "saturation_qps"),
}

// disableBatching deep-copies a blueprint with all batching turned off and
// per-connection queues replaced by plain FIFOs.
func disableBatching(bp *service.Blueprint) *service.Blueprint {
	c := *bp
	c.Name = bp.Name + "_nobatch"
	c.Stages = append([]service.StageSpec(nil), bp.Stages...)
	for i := range c.Stages {
		c.Stages[i].Batching = false
	}
	return &c
}

// ablationNetproc quantifies design decision #2: without the shared
// interrupt-processing service, the 16-way load-balancing scale-out keeps
// scaling linearly instead of flattening near 120k QPS.
var ablationNetproc = Spec{
	Cells: func(o Opts) (cells []Cell) {
		for _, n := range []int{8, 16} {
			for _, noNet := range []bool{false, true} {
				cells = append(cells, saturation(o, []string{fmt.Sprint(n), fmt.Sprint(noNet)}, func() (*sim.Sim, error) {
					return apps.LoadBalanced(apps.ScaleOutConfig{
						Seed: o.Seed, QPS: float64(n) * 9000 * 2, Servers: n, NoNetwork: noNet,
					})
				}))
			}
		}
		return cells
	},
	// One row per cluster size: the cells with and without the network.
	Reduce: func(_ Opts, rs []Result) (*Table, error) {
		t := NewTable("Ablation — network interrupt processing",
			"servers", "with_netproc_qps", "without_netproc_qps")
		t.Note = "paper Fig. 8's sub-linear 16-way point comes from soft_irq saturation"
		for i := 0; i < len(rs); i += 2 {
			t.Add(rs[i].Label[0], f0(rs[i].Rep.GoodputQPS), f0(rs[i+1].Rep.GoodputQPS))
		}
		return t, nil
	},
}

// ablationBlocking quantifies design decision #3: connection-level
// blocking (finite http/1.1 connection pools) bounds in-flight requests,
// so the saturated system degrades by queueing at the connection pool
// instead of flooding every stage queue.
var ablationBlocking = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(200*des.Millisecond, des.Second)
		const overload = 100000 // ≈1.4× the 8p capacity
		for _, c := range []struct {
			label      string
			noBlocking bool
		}{{"blocking (µqSim)", false}, {"no blocking (ablated)", true}} {
			cells = append(cells, Cell{Label: []string{c.label, fmt.Sprint(overload)}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					return apps.TwoTier(apps.TwoTierConfig{
						Seed: o.Seed, QPS: overload, Network: true, NoBlocking: c.noBlocking,
					})
				}})
		}
		return cells
	},
	Reduce: rows("Ablation — http/1.1 connection blocking",
		"without pools, overload floods the service queues (unbounded in-flight)",
		"model", "offered_qps", "p99_ms", "in_flight_at_end"),
}

// ablationLB compares load-balancing policies on the scale-out scenario
// at high load: least-loaded smooths tail latency relative to random;
// round-robin sits between.
var ablationLB = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, des.Second)
		for _, c := range []struct {
			label  string
			policy sim.Policy
		}{{"round_robin", sim.RoundRobin}, {"random", sim.Random}, {"least_loaded", sim.LeastLoaded}} {
			cells = append(cells, Cell{Label: []string{c.label}, Warmup: w, Window: d,
				Build: func() (*sim.Sim, error) {
					s, err := apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: 30000, Servers: 4})
					if err != nil {
						return nil, err
					}
					dep, ok := s.Deployment("nginx")
					if !ok {
						return nil, fmt.Errorf("experiments: nginx deployment missing")
					}
					dep.LB = c.policy
					return s, nil
				}})
		}
		return cells
	},
	Reduce: rows("Ablation — load-balancing policy", "", "policy", "p99_ms", "goodput_qps"),
}
