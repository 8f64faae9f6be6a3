package experiments

import (
	"context"
	"fmt"
	"slices"

	"uqsim/internal/analytic"
	"uqsim/internal/apps"
	"uqsim/internal/bighouse"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/service"
	"uqsim/internal/sim"
)

// fig5 regenerates the two-tier NGINX→memcached validation: one
// load–latency curve per thread/process configuration. The paper's
// qualitative results: the saturation point is set by the NGINX process
// count; extra memcached threads do not move it.
var fig5 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		for _, c := range []struct {
			label  string
			nginx  int
			mc     int
			maxQPS float64
		}{
			{"nginx8p-mc4t", 8, 4, 80000},
			{"nginx8p-mc2t", 8, 2, 80000},
			{"nginx4p-mc2t", 4, 2, 45000},
			{"nginx4p-mc1t", 4, 1, 45000},
		} {
			cells = append(cells, curve(o, []string{c.label}, c.maxQPS/8, c.maxQPS, c.maxQPS/8, des.Second,
				func(qps float64) (*sim.Sim, error) {
					return apps.TwoTier(apps.TwoTierConfig{
						Seed: o.Seed, QPS: qps,
						NginxCores: c.nginx, MemcachedThreads: c.mc, Network: true,
					})
				})...)
		}
		return cells
	},
	Reduce: rows("Fig. 5 — two-tier NGINX/memcached load–latency",
		"paper: saturation tracks NGINX processes (8p ≈ 2× 4p); memcached threads don't matter",
		curveColumns...),
}

// fig6 regenerates the three-tier validation: MongoDB's disk bandwidth
// bounds throughput, latencies are millisecond-scale.
var fig6 = Spec{
	Cells: func(o Opts) []Cell {
		return curve(o, []string{"nginx8p-mc2t-mongo"}, 250, 2750, 250, 2*des.Second,
			func(qps float64) (*sim.Sim, error) {
				return apps.ThreeTier(apps.ThreeTierConfig{Seed: o.Seed, QPS: qps, Network: true})
			})
	},
	Reduce: rows("Fig. 6 — three-tier NGINX/memcached/MongoDB load–latency",
		"paper: disk I/O bound; scaling the other tiers does not help", curveColumns...),
}

// fig8 regenerates the load-balancing validation: saturation 35k → 70k →
// ~120k QPS for 4 → 8 → 16 webservers (sub-linear at 16, when the proxy
// machine's interrupt cores saturate).
var fig8 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		for _, n := range []int{4, 8, 16} {
			maxQPS := min(float64(n)*11000, 145000)
			cells = append(cells, curve(o, []string{fmt.Sprintf("scaleout-%d", n)}, maxQPS/8, maxQPS, maxQPS/8, des.Second,
				func(qps float64) (*sim.Sim, error) {
					return apps.LoadBalanced(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n})
				})...)
		}
		return cells
	},
	Reduce: rows("Fig. 8 — NGINX load balancing (p99 vs load)",
		"paper: 35k/70k QPS for 4/8 servers, ~120k for 16 (soft_irq bound)", curveColumns...),
}

// fig10 regenerates the fanout validation: all leaves serve every
// request; saturation decreases slightly with width while the p99 knee
// sharpens.
var fig10 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		for _, n := range []int{4, 8, 16} {
			cells = append(cells, curve(o, []string{fmt.Sprintf("fanout-%d", n)}, 1500, 10500, 1500, des.Second,
				func(qps float64) (*sim.Sim, error) {
					return apps.Fanout(apps.ScaleOutConfig{Seed: o.Seed, QPS: qps, Servers: n})
				})...)
		}
		return cells
	},
	Reduce: rows("Fig. 10 — NGINX request fanout (p99 vs load)",
		"paper: saturation decreases slightly as fanout grows", curveColumns...),
}

// fig12a regenerates the Apache Thrift RPC validation: low-load latency
// under 100µs, saturation just above 50 kQPS.
var fig12a = Spec{
	Cells: func(o Opts) []Cell {
		return curve(o, []string{"thrift-1core"}, 5000, 65000, 5000, des.Second,
			func(qps float64) (*sim.Sim, error) {
				return apps.ThriftHello(apps.ThriftHelloConfig{Seed: o.Seed, QPS: qps, Network: true})
			})
	},
	Reduce: rows("Fig. 12a — Thrift hello-world RPC",
		"paper: <100µs at low load, saturation ≈50 kQPS", curveColumns...),
}

// fig12b regenerates the end-to-end Social Network validation.
var fig12b = Spec{
	Cells: func(o Opts) []Cell {
		return curve(o, []string{"socialnet"}, 500, 6000, 500, des.Second,
			func(qps float64) (*sim.Sim, error) {
				return apps.SocialNetwork(apps.SocialNetworkConfig{Seed: o.Seed, QPS: qps, Network: true})
			})
	},
	Reduce: rows("Fig. 12b — Social Network end-to-end",
		"paper: close latency match at low load, same saturation throughput", curveColumns...),
}

// fig14 regenerates the tail-at-scale study: p99 of a full cluster
// fan-out versus cluster size, for several fractions of 10×-slow servers,
// alongside the closed-form zero-load reference.
var fig14 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		clusters := []int{5, 10, 50, 100, 500, 1000}
		if o.scale() < 0.5 {
			clusters = []int{5, 50, 200}
		}
		_, d := o.window(0, 40*des.Second)
		for _, n := range clusters {
			for _, slow := range []float64{0, 0.01, 0.05, 0.10} {
				cells = append(cells, Cell{
					Label: []string{fmt.Sprint(n), fmt.Sprintf("%.2f", slow)},
					Build: func() (*sim.Sim, error) {
						// 25 QPS keeps slow leaves at ρ=0.25, so the tail is
						// the slow-machine effect, not queueing.
						return apps.TailAtScale(apps.TailAtScaleConfig{
							Seed: o.Seed, QPS: 25, Servers: n, SlowFraction: slow,
						})
					},
					Window: d,
					Read: func(_ *sim.Sim, rep *sim.Report) any {
						cdf := analytic.MixtureExpCDF(slow, 1, 10) // ms units
						return cols{
							"p99_ms":          fmt.Sprintf("%.2f", rep.Latency.P99().Millis()),
							"analytic_p99_ms": fmt.Sprintf("%.2f", analytic.FanoutQuantileOfMax(n, 0.99, 0, 1000, cdf)),
							"slow_touch_prob": fmt.Sprintf("%.3f", analytic.TailAtScaleSlowProb(slow, n)),
						}
					},
				})
			}
		}
		return cells
	},
	Reduce: rows("Fig. 14 — tail at scale",
		"paper: ≥1% slow servers dominate p99 for clusters ≥100 (Dean & Barroso)",
		"servers", "slow_frac", "p99_ms", "analytic_p99_ms", "slow_touch_prob"),
}

// fig13 regenerates the µqSim-vs-BigHouse comparison for the
// single-process NGINX webserver and the 4-thread memcached: BigHouse
// charges the full epoll cost to every request, so it saturates earlier.
// The BigHouse cells run its single-stage collapse, not a Sim.
var fig13 = Spec{
	Cells: func(o Opts) (cells []Cell) {
		w, d := o.window(300*des.Millisecond, des.Second)
		for _, c := range []struct {
			label          string
			bp             *service.Blueprint
			path           string
			cores          int
			from, to, step float64 // the load grid (SweepGrid)
			sizeKB         dist.Sampler
			meanKB         float64
		}{
			{"nginx-1p", apps.Nginx(), "serve", 1, 2000, 11000, 1500,
				dist.NewDeterministic(612.0 / 1024), 612.0 / 1024},
			{"memcached-4t", apps.Memcached(), "memcached_read", 4, 100000, 1000000, 100000,
				dist.NewExponential(1), 1},
		} {
			bp := c.bp
			pathIdx := slices.IndexFunc(bp.Paths, func(p service.PathSpec) bool { return p.Name == c.path })
			// µqSim: full stage model.
			cells = append(cells, curve(o, []string{c.label, "uqsim"}, c.from, c.to, c.step, des.Second,
				func(qps float64) (*sim.Sim, error) {
					return apps.SingleService(bp, c.path, c.cores, qps, o.Seed, c.sizeKB)
				})...)
			// BigHouse: single-stage collapse.
			svc := bighouse.SingleStageService(apps.CollapsedSamplers(bp, pathIdx, c.meanKB)...)
			for _, qps := range o.loads(c.from, c.to, c.step) {
				cells = append(cells, Cell{Label: []string{c.label, "bighouse", f0(qps)}, Func: func(context.Context) (any, error) {
					res, err := bighouse.Run(bighouse.Config{
						Seed:         o.Seed,
						Servers:      c.cores,
						Service:      svc,
						Interarrival: dist.NewExponential(1e9 / qps),
					}, w, d)
					if err != nil {
						return nil, err
					}
					return cols{"goodput_qps": f0(res.GoodputQPS), "p99_ms": ms(res.Latency.P99())}, nil
				}})
			}
		}
		return cells
	},
	Reduce: rows("Fig. 13 — µqSim vs BigHouse",
		"paper: BigHouse saturates early because epoll cost is not amortized",
		"app", "simulator", "offered_qps", "goodput_qps", "p99_ms"),
}
