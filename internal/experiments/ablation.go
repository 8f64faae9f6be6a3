package experiments

import (
	"fmt"

	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/service"
	"uqsim/internal/sim"
)

// AblationNoBatching quantifies design decision #1 of DESIGN.md: disabling
// the epoll/socket batch amortization (processing every job individually,
// full base cost each time) lowers the saturation throughput — the same
// modelling gap the BigHouse comparison exposes, isolated inside µqSim.
func AblationNoBatching(o Opts) (*Table, error) {
	t := NewTable("Ablation — epoll batch amortization",
		"model", "saturation_qps")
	t.Note = "batching amortizes per-dispatch base costs; without it capacity drops"
	base := apps.Memcached()
	noBatch := disableBatching(base)
	for _, c := range []struct {
		label string
		bp    *service.Blueprint
	}{{"batched (µqSim)", base}, {"unbatched (ablated)", noBatch}} {
		sat, err := saturation(o, func(qps float64) (*sim.Sim, error) {
			return apps.SingleService(c.bp, "memcached_read", 4, qps, o.Seed, nil)
		}, 900000)
		if err != nil {
			return nil, err
		}
		t.Add(c.label, fmt.Sprintf("%.0f", sat))
	}
	return t, nil
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

// AblationNoNetproc quantifies design decision #2: without the shared
// interrupt-processing service, the 16-way load-balancing scale-out keeps
// scaling linearly instead of flattening near 120k QPS.
func AblationNoNetproc(o Opts) (*Table, error) {
	t := NewTable("Ablation — network interrupt processing",
		"servers", "with_netproc_qps", "without_netproc_qps")
	t.Note = "paper Fig. 8's sub-linear 16-way point comes from soft_irq saturation"
	for _, n := range []int{8, 16} {
		n := n
		with, err := saturation(o, func(qps float64) (*sim.Sim, error) {
			return apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n})
		}, float64(n)*9000*2)
		if err != nil {
			return nil, err
		}
		without, err := saturation(o, func(qps float64) (*sim.Sim, error) {
			return apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n, NoNetwork: true})
		}, float64(n)*9000*2)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", with),
			fmt.Sprintf("%.0f", without))
	}
	return t, nil
}

// AblationNoBlocking quantifies design decision #3: connection-level
// blocking (finite http/1.1 connection pools) bounds in-flight requests,
// so the saturated system degrades by queueing at the connection pool
// instead of flooding every stage queue.
func AblationNoBlocking(o Opts) (*Table, error) {
	t := NewTable("Ablation — http/1.1 connection blocking",
		"model", "offered_qps", "p99_ms", "in_flight_at_end")
	t.Note = "without pools, overload floods the service queues (unbounded in-flight)"
	w, d := o.window(200*des.Millisecond, des.Second)
	const overload = 100000 // ≈1.4× the 8p capacity
	for _, c := range []struct {
		label      string
		noBlocking bool
	}{{"blocking (µqSim)", false}, {"no blocking (ablated)", true}} {
		s, err := apps.TwoTier(apps.TwoTierConfig{
			Seed: o.Seed, QPS: overload, Network: true, NoBlocking: c.noBlocking,
		})
		if err != nil {
			return nil, err
		}
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		t.Add(c.label,
			fmt.Sprintf("%d", overload),
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmt.Sprintf("%d", rep.InFlight))
	}
	return t, nil
}

// AblationLBPolicies compares load-balancing policies on the scale-out
// scenario at high load: least-loaded smooths tail latency relative to
// random; round-robin sits between.
func AblationLBPolicies(o Opts) (*Table, error) {
	t := NewTable("Ablation — load-balancing policy", "policy", "p99_ms", "goodput_qps")
	w, d := o.window(300*des.Millisecond, des.Second)
	for _, c := range []struct {
		label  string
		policy sim.Policy
	}{{"round_robin", sim.RoundRobin}, {"random", sim.Random}, {"least_loaded", sim.LeastLoaded}} {
		s, err := apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: 30000, Servers: 4})
		if err != nil {
			return nil, err
		}
		dep, ok := s.Deployment("nginx")
		if !ok {
			return nil, fmt.Errorf("experiments: nginx deployment missing")
		}
		dep.LB = c.policy
		rep, err := measure(s, w, d)
		if err != nil {
			return nil, err
		}
		t.Add(c.label,
			fmt.Sprintf("%.3f", rep.Latency.P99().Millis()),
			fmt.Sprintf("%.0f", rep.GoodputQPS))
	}
	return t, nil
}
