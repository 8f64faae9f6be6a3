package main

import (
	"fmt"
	"math"
	"path/filepath"

	"uqsim/internal/analytic"
	"uqsim/internal/apps"
	"uqsim/internal/cluster"
	"uqsim/internal/config"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	wl "uqsim/internal/workload"
)

// workload is one benchmark workload: how to build a fresh simulation for
// a rep, how long the rep simulates, and the closed-form p99 it is checked
// against when one exists.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// warmup and duration are the simulated window of one rep at scale 1.
	warmup, duration des.Time
	// build assembles a fresh simulation for one rep.
	build func(w *workload, in buildInput) (*built, error)
	// referenceP99 is the closed-form p99 the merged latency histogram is
	// compared with; nil marks the workload unvalidated.
	referenceP99 func() des.Time
	// meanThink is the mean think time between a session user's requests
	// (0 for open-loop workloads); it turns arrival rates into user counts.
	meanThink des.Time
}

// buildInput is what a rep's simulation is made from: seeds and a scale,
// never anything measured.
type buildInput struct {
	seed    uint64  // the benchmark seed: inputs shared by every rep
	repSeed uint64  // the simulation's seed
	scale   float64 // simulated window multiplier; 1 outside tests
	dir     string  // scratch directory private to the rep
	tr      *tracer // records spans around the calls into config and apps
}

// built is one assembled rep.
type built struct {
	sim              *sim.Sim
	plane            *control.Plane // nil without a control plane
	warmup, duration des.Time
}

// window scales a workload's simulated window; tests run at scale << 1.
func (w *workload) window(scale float64) (warmup, duration des.Time) {
	return des.Time(float64(w.warmup) * scale), des.Time(float64(w.duration) * scale)
}

var workloads = []*workload{
	{
		name: "twotier",
		why:  "open-loop 40 kQPS NGINX+memcached: event-dense, shallow heap; des, service, queueing, stats, dist, job do the work, fault layers none",
		// No warm-up, as BenchmarkSimulatorEventRate, so allocs_per_req
		// divides by every request the run allocated for. Reps are about
		// half a host second, so a run holds dozens (see fastest, metrics.go).
		warmup: 0, duration: 1500 * des.Millisecond,
		build: buildApps(func(seed uint64) (*sim.Sim, error) {
			return apps.TwoTier(apps.TwoTierConfig{Seed: seed, QPS: 40000, Network: true})
		}),
	},
	{
		name:   "fanout",
		why:    "open-loop 50 QPS fanning out to 600 leaves: request-tree allocation, join bookkeeping, a deep event heap and a 600-instance build",
		warmup: 0, duration: 14 * des.Second,
		build: buildApps(func(seed uint64) (*sim.Sim, error) {
			return apps.TailAtScale(apps.TailAtScaleConfig{
				Seed: seed, QPS: fanoutQPS, Servers: fanoutServers, SlowFraction: fanoutSlow,
			})
		}),
		referenceP99: fanoutReferenceP99,
	},
	{
		name:   "resilient",
		why:    "open-loop 15 kQPS three-region config directory via the JSON loader with policies on every edge and a fault per simulated second: sim policy paths, fault, netfault, control, timers armed and cancelled",
		warmup: 500 * des.Millisecond, duration: resilientSlots * des.Second,
		build: buildResilient,
	},
	{
		name:   "hybrid_1m",
		why:    "closed-loop 1,000,000 session users at hybrid fidelity (about 4,000 in the foreground) with a flash crowd: workload sessions, the fluid tier and M/M/k solves over 16,528 servers",
		warmup: hybridWarmup, duration: hybridMeasured,
		build:        buildApps(buildHybrid),
		referenceP99: hybridReferenceP99,
		meanThink:    hybridThink,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// buildApps adapts a programmatic scenario builder: the whole build is one
// apps.build span.
func buildApps(mk func(seed uint64) (*sim.Sim, error)) func(*workload, buildInput) (*built, error) {
	return func(w *workload, in buildInput) (*built, error) {
		defer in.tr.span("apps.build")()
		s, err := mk(in.repSeed)
		if err != nil {
			return nil, err
		}
		warm, dur := w.window(in.scale)
		return &built{sim: s, warmup: warm, duration: dur}, nil
	}
}

// ---- fanout ----

const (
	fanoutQPS     = 50.0
	fanoutServers = 600 // 500 gave 46x twotier's events per request, under the 50x the layers are told apart by
	fanoutSlow    = 0.01
)

// fanoutReferenceP99 is the p99 of the slowest of 600 leaf responses. Each
// leaf is an M/M/1 queue fed by the full Poisson request stream, so its
// sojourn time is exponential with mean 1/(µ−λ): 1 ms leaves at 50 QPS
// give 1/950 s, the six 10 ms leaves 1/50 s. Leaves share arrival
// instants, so independence across leaves is an approximation; the root's
// two 0.5 µs stages are below the histogram's resolution.
func fanoutReferenceP99() des.Time {
	fast := 1 / (1000 - fanoutQPS) // seconds
	slow := 1 / (100 - fanoutQPS)
	cdf := analytic.MixtureExpCDF(fanoutSlow, fast, slow)
	return des.FromSeconds(analytic.FanoutQuantileOfMax(fanoutServers, 0.99, 0, 10, cdf))
}

// ---- hybrid_1m ----

const (
	hybridUsers      = 1_000_000
	hybridForeground = 4000
	// examples/millionuser sizes the tier at 4 cores per 242 users, which
	// puts the base population near rho 0.6.
	hybridCores   = 4 * (hybridUsers / 242)
	hybridService = 10 * des.Millisecond
	hybridThink   = des.Second
	// The crowd adds half the base population (rho ≈ 0.9): the example's
	// doubling saturates the tier, and a saturated M/M/k has no p99 to
	// compare with.
	hybridCrowd = hybridUsers / 2
	// The crowd ramps for 2 s, holds for 2 s and ramps down for 2 s in
	// the middle of the 10 s measured window.
	hybridWarmup   = 2 * des.Second
	hybridMeasured = 10 * des.Second
	hybridCrowdAt  = 4 * des.Second
	hybridRamp     = 2 * des.Second
	hybridHold     = 2 * des.Second
)

func buildHybrid(seed uint64) (*sim.Sim, error) {
	s := sim.New(sim.Options{Seed: seed})
	s.AddMachine("m0", hybridCores, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(service.SingleStage("front", dist.NewExponential(float64(hybridService))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: hybridCores}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front")); err != nil {
		return nil, err
	}
	think := dist.NewExponential(float64(hybridThink))
	s.SetClient(sim.ClientConfig{Sessions: &wl.SessionConfig{
		Users: hybridUsers,
		Journeys: []wl.Journey{{Name: "browse", Weight: 1, Steps: []wl.SessionStep{
			{Tree: 0, Think: think},
			{Tree: 0, Think: think},
		}}},
		Crowds: []wl.FlashCrowd{{
			At: hybridCrowdAt, Extra: hybridCrowd,
			RampUp: hybridRamp, Hold: hybridHold, RampDown: hybridRamp,
		}},
	}})
	s.SetHybrid(hybrid.Config{SampleRate: float64(hybridForeground) / hybridUsers})
	return s, nil
}

// hybridReferenceP99 is the p99 sojourn time of the M/M/k tier: a wait
// that is zero with probability 1−C and Exp(kµ−λ) otherwise, plus an
// Exp(µ) service. The base and crowd populations are mixed by the share of
// requests each issues; both are unsaturated, so with 16,528 servers the
// Erlang-C wait probability is ~0 and the answer is the service p99.
func hybridReferenceP99() des.Time {
	mu := 1 / hybridService.Seconds()
	cycle := hybridThink.Seconds() + 1/mu
	// Requests issued in each phase ∝ population × time; the two ramps
	// together count as one ramp's length at full crowd.
	crowdS := (hybridHold + hybridRamp).Seconds()
	phases := []struct{ lambda, weight float64 }{
		{hybridUsers / cycle, hybridUsers * (hybridMeasured.Seconds() - crowdS)},
		{(hybridUsers + hybridCrowd) / cycle, (hybridUsers + hybridCrowd) * crowdS},
	}
	tail := func(t float64) float64 {
		var sum, wsum float64
		for _, p := range phases {
			pWait, c := analytic.MMkWaitDist(p.lambda, mu, hybridCores)
			served := math.Exp(-mu * t)
			waited := served
			if c > 0 && c != mu {
				waited = (c*math.Exp(-mu*t) - mu*math.Exp(-c*t)) / (c - mu)
			}
			sum += p.weight * ((1-pWait)*served + pWait*waited)
			wsum += p.weight
		}
		return sum / wsum
	}
	lo, hi := 0.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > 0.01 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return des.FromSeconds((lo + hi) / 2)
}

// ---- resilient ----

func buildResilient(w *workload, in buildInput) (*built, error) {
	warm, dur := w.window(in.scale)
	tr, dir := in.tr, in.dir
	end := tr.span("bench.generate")
	err := writeResilientDir(dir, in.seed, in.repSeed, warm, dur)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.span("config.hashdir")
	_, err = config.HashDir(dir)
	end()
	if err != nil {
		return nil, err
	}
	defer tr.span("config.load")()
	setup, err := config.LoadDirWithFaults(dir, filepath.Join(dir, "faults.json"))
	if err != nil {
		return nil, err
	}
	return &built{sim: setup.Sim, plane: setup.Plane, warmup: setup.Warmup, duration: setup.Duration}, nil
}
