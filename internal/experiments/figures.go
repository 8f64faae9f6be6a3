package experiments

import (
	"fmt"

	"uqsim/internal/analytic"
	"uqsim/internal/apps"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/sim"
)

// Fig5TwoTier regenerates the two-tier NGINX→memcached validation: one
// load–latency curve per thread/process configuration. The paper's
// qualitative results: the saturation point is set by the NGINX process
// count; extra memcached threads do not move it.
func Fig5TwoTier(o Opts) (*Table, error) {
	t := NewTable("Fig. 5 — two-tier NGINX/memcached load–latency", curveColumns()...)
	t.Note = "paper: saturation tracks NGINX processes (8p ≈ 2× 4p); memcached threads don't matter"
	configs := []struct {
		label  string
		nginx  int
		mc     int
		maxQPS float64
	}{
		{"nginx8p-mc4t", 8, 4, 80000},
		{"nginx8p-mc2t", 8, 2, 80000},
		{"nginx4p-mc2t", 4, 2, 45000},
		{"nginx4p-mc1t", 4, 1, 45000},
	}
	for _, c := range configs {
		c := c
		pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
			return apps.TwoTier(apps.TwoTierConfig{
				Seed: o.Seed, QPS: qps,
				NginxCores: c.nginx, MemcachedThreads: c.mc, Network: true,
			})
		}, c.maxQPS/8, c.maxQPS, c.maxQPS/8, 300*des.Millisecond, des.Second)
		if err != nil {
			return nil, err
		}
		addCurve(t, c.label, pts)
	}
	return t, nil
}

// Fig6ThreeTier regenerates the three-tier validation: MongoDB's disk
// bandwidth bounds throughput, latencies are millisecond-scale.
func Fig6ThreeTier(o Opts) (*Table, error) {
	t := NewTable("Fig. 6 — three-tier NGINX/memcached/MongoDB load–latency", curveColumns()...)
	t.Note = "paper: disk I/O bound; scaling the other tiers does not help"
	pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
		return apps.ThreeTier(apps.ThreeTierConfig{Seed: o.Seed, QPS: qps, Network: true})
	}, 250, 2750, 250, 300*des.Millisecond, 2*des.Second)
	if err != nil {
		return nil, err
	}
	addCurve(t, "nginx8p-mc2t-mongo", pts)
	return t, nil
}

// Fig8LoadBalancing regenerates the load-balancing validation: saturation
// 35k → 70k → ~120k QPS for 4 → 8 → 16 webservers (sub-linear at 16, when
// the proxy machine's interrupt cores saturate).
func Fig8LoadBalancing(o Opts) (*Table, error) {
	t := NewTable("Fig. 8 — NGINX load balancing (p99 vs load)", curveColumns()...)
	t.Note = "paper: 35k/70k QPS for 4/8 servers, ~120k for 16 (soft_irq bound)"
	for _, n := range []int{4, 8, 16} {
		n := n
		maxQPS := float64(n) * 11000
		if maxQPS > 145000 {
			maxQPS = 145000
		}
		pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
			return apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n})
		}, maxQPS/8, maxQPS, maxQPS/8, 300*des.Millisecond, des.Second)
		if err != nil {
			return nil, err
		}
		addCurve(t, fmt.Sprintf("scaleout-%d", n), pts)
	}
	return t, nil
}

// Fig10Fanout regenerates the fanout validation: all leaves serve every
// request; saturation decreases slightly with width while the p99 knee
// sharpens.
func Fig10Fanout(o Opts) (*Table, error) {
	t := NewTable("Fig. 10 — NGINX request fanout (p99 vs load)", curveColumns()...)
	t.Note = "paper: saturation decreases slightly as fanout grows"
	for _, n := range []int{4, 8, 16} {
		n := n
		pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
			return apps.Fanout(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n})
		}, 1500, 10500, 1500, 300*des.Millisecond, des.Second)
		if err != nil {
			return nil, err
		}
		addCurve(t, fmt.Sprintf("fanout-%d", n), pts)
	}
	return t, nil
}

// Fig12aThrift regenerates the Apache Thrift RPC validation: low-load
// latency under 100µs, saturation just above 50 kQPS.
func Fig12aThrift(o Opts) (*Table, error) {
	t := NewTable("Fig. 12a — Thrift hello-world RPC", curveColumns()...)
	t.Note = "paper: <100µs at low load, saturation ≈50 kQPS"
	pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
		return apps.ThriftHello(apps.ThriftHelloConfig{Seed: o.Seed, QPS: qps, Network: true})
	}, 5000, 65000, 5000, 300*des.Millisecond, des.Second)
	if err != nil {
		return nil, err
	}
	addCurve(t, "thrift-1core", pts)
	return t, nil
}

// Fig12bSocialNetwork regenerates the end-to-end Social Network
// validation.
func Fig12bSocialNetwork(o Opts) (*Table, error) {
	t := NewTable("Fig. 12b — Social Network end-to-end", curveColumns()...)
	t.Note = "paper: close latency match at low load, same saturation throughput"
	pts, err := sweep(o, func(qps float64) (*sim.Sim, error) {
		return apps.SocialNetwork(apps.SocialNetworkConfig{Seed: o.Seed, QPS: qps, Network: true})
	}, 500, 6000, 500, 300*des.Millisecond, des.Second)
	if err != nil {
		return nil, err
	}
	addCurve(t, "socialnet", pts)
	return t, nil
}

// Fig14TailAtScale regenerates the tail-at-scale study: p99 of a full
// cluster fan-out versus cluster size, for several fractions of 10×-slow
// servers, alongside the closed-form zero-load reference.
func Fig14TailAtScale(o Opts) (*Table, error) {
	t := NewTable("Fig. 14 — tail at scale",
		"servers", "slow_frac", "p99_ms", "analytic_p99_ms", "slow_touch_prob")
	t.Note = "paper: ≥1% slow servers dominate p99 for clusters ≥100 (Dean & Barroso)"
	clusters := []int{5, 10, 50, 100, 500, 1000}
	if o.scale() < 0.5 {
		clusters = []int{5, 50, 200}
	}
	const qps = 25.0 // keep slow leaves at ρ=0.25 so the tail is the
	// slow-machine effect, not queueing
	for _, n := range clusters {
		for _, slow := range []float64{0, 0.01, 0.05, 0.10} {
			s, err := apps.TailAtScale(apps.TailAtScaleConfig{
				Seed: o.Seed, QPS: qps, Servers: n, SlowFraction: slow,
			})
			if err != nil {
				return nil, err
			}
			_, d := o.window(0, 40*des.Second)
			rep, err := measure(s, 0, d)
			if err != nil {
				return nil, err
			}
			cdf := analytic.MixtureExpCDF(slow, 1, 10) // ms units
			ref := analytic.FanoutQuantileOfMax(n, 0.99, 0, 1000, cdf)
			t.Add(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", slow),
				fmt.Sprintf("%.2f", rep.Latency.P99().Millis()),
				fmt.Sprintf("%.2f", ref),
				fmt.Sprintf("%.3f", analytic.TailAtScaleSlowProb(slow, n)),
			)
		}
	}
	return t, nil
}

// Fig13BigHouse regenerates the µqSim-vs-BigHouse comparison for the
// single-process NGINX webserver and the 4-thread memcached: BigHouse
// charges the full epoll cost to every request, so it saturates earlier.
func Fig13BigHouse(o Opts) (*Table, error) {
	t := NewTable("Fig. 13 — µqSim vs BigHouse",
		"app", "simulator", "offered_qps", "goodput_qps", "p99_ms")
	t.Note = "paper: BigHouse saturates early because epoll cost is not amortized"
	w, d := o.window(300*des.Millisecond, des.Second)

	type appCase struct {
		label          string
		bp             string // "nginx" or "memcached"
		path           string
		cores          int
		from, to, step float64 // the load grid (SweepGrid)
		sizeKB         dist.Sampler
		meanKB         float64
	}
	cases := []appCase{
		{"nginx-1p", "nginx", "serve", 1, 2000, 11000, 1500,
			dist.NewDeterministic(612.0 / 1024), 612.0 / 1024},
		{"memcached-4t", "memcached", "memcached_read", 4, 100000, 1000000, 100000,
			dist.NewExponential(1), 1},
	}
	for _, c := range cases {
		loads, err := SweepGrid(c.from, c.to, c.step)
		if err != nil {
			return nil, err
		}
		bp := apps.Nginx()
		if c.bp == "memcached" {
			bp = apps.Memcached()
		}
		pathIdx := 0
		for i, p := range bp.Paths {
			if p.Name == c.path {
				pathIdx = i
			}
		}
		// µqSim: full stage model.
		for _, qps := range o.thin(loads) {
			s, err := apps.SingleService(bp, c.path, c.cores, qps, o.Seed, c.sizeKB)
			if err != nil {
				return nil, err
			}
			rep, err := measure(s, w, d)
			if err != nil {
				return nil, err
			}
			t.Add(c.label, "uqsim",
				fmt.Sprintf("%.0f", qps),
				fmt.Sprintf("%.0f", rep.GoodputQPS),
				fmt.Sprintf("%.3f", rep.Latency.P99().Millis()))
		}
		// BigHouse: single-stage collapse.
		svc := bhCollapse(bp, pathIdx, c.meanKB)
		for _, qps := range o.thin(loads) {
			res, err := bhRun(o.Seed, c.cores, svc, qps, w, d)
			if err != nil {
				return nil, err
			}
			t.Add(c.label, "bighouse",
				fmt.Sprintf("%.0f", qps),
				fmt.Sprintf("%.0f", res.goodput),
				fmt.Sprintf("%.3f", res.p99.Millis()))
		}
	}
	return t, nil
}
