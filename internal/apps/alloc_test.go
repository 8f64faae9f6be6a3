package apps

import (
	"runtime"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// guardedThreeRegion is the three-region config directory (region-homed
// client with a timeout, WAN hops, heartbeats and region failover, a region
// crash and recovery) at a steady 6 kQPS with a timeout, retries, a hedge and
// a breaker on both edges: every kind of request-path timer is armed on
// every request, and nearly all are abandoned.
func guardedThreeRegion() (*sim.Sim, error) {
	setup, err := config.Load("../../configs/threeregion", config.Overrides{})
	if err != nil {
		return nil, err
	}
	s := setup.Sim
	cc := s.Client()
	cc.Pattern = workload.ConstantRate(6000)
	cc.Budget = dist.NewDeterministic(float64(150 * des.Millisecond))
	s.SetClient(cc)
	for _, svc := range []string{"front", "store"} {
		if err := s.SetServicePolicy(svc, fault.Policy{
			Timeout: 50 * des.Millisecond, MaxRetries: 2, BackoffBase: des.Millisecond, BackoffJitter: 0.5,
			Hedge:   &fault.HedgeSpec{Quantile: 0.95, MinSamples: 64},
			Breaker: &fault.BreakerSpec{ErrorThreshold: 0.5, Window: 64, Cooldown: 100 * des.Millisecond},
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hybridSessions is the million-user cell at a quarter of its size: 250,000
// closed-loop session users at hybrid fidelity, sampled at 0.004 (about
// 1,000 in the foreground), a core per 60 users, and a flash crowd of half
// the population that ramps up, holds and ramps down within the run, so
// simulated users spawn, retire and are replaced.
func hybridSessions() (*sim.Sim, error) {
	const users, cores = 250_000, 4 * 250_000 / 242
	s := sim.New(sim.Options{Seed: 1})
	s.AddMachine("m0", cores, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(service.SingleStage("front", dist.NewExponential(float64(10*des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: cores}); err != nil {
		return nil, err
	}
	if err := s.SetTopology(graph.Linear("main", "front")); err != nil {
		return nil, err
	}
	think := dist.NewExponential(float64(des.Second))
	s.SetClient(sim.ClientConfig{Sessions: &workload.SessionConfig{
		Users: users,
		Journeys: []workload.Journey{{Name: "browse", Weight: 1, Steps: []workload.SessionStep{
			{Tree: 0, Think: think}, {Tree: 0, Think: think},
		}}},
		Crowds: []workload.FlashCrowd{{At: 2 * des.Second, Extra: users / 2,
			RampUp: des.Second, Hold: des.Second, RampDown: des.Second}},
	}})
	s.SetHybrid(hybrid.Config{SampleRate: 0.004})
	return s, nil
}

// TestRequestPathAllocationCeiling keeps the request path allocation-free:
// jobs, requests, request state, stage runs and queue buffers are all
// recycled, so what a run still allocates is the one-off growth of those
// pools, not something per request. The ceilings are the figures measured
// when the pools went in (PR 12) plus 10 %; before, the two-tier cell
// allocated 70 times per request and the fan-out cell 3,000 times. The
// guarded three-region cell joined with PR 16, which moved every policy and
// control-plane timer into the record it guards: before, it allocated 17
// times per request.
//
// The fan-out cell's malloc ceiling is the figure measured once instances
// stopped keeping latency histograms, plus 10 %. Bytes catch what a malloc
// count misses: the fan-out run used to copy a 12.8 KB histogram per
// instance into its report, 19.4 KB per request against 1.6 KB now.
//
// The byte ceilings, and the two-tier cells' malloc ceilings, are the
// figures measured once the per-job path stopped looking names up, plus
// 10 %: epoll and socket queues keep their per-connection subqueues in
// pages of a table by connection ID, one allocation per 64 connections
// instead of one per connection (the two-tier cells made 0.056 mallocs and
// 2.9 bytes per request before), and the fan-out cell's node table is built
// with its topology, outside the run.
//
// Every ceiling is now the figure measured once the pools became slabs,
// plus 10 %: a record type's pool grows by arrays of records, one slab per
// simulation (all instances share one for stage runs), session users are
// pooled too, and a queue or batch that never holds more than one job
// lives on an inline slot. What remains is one bound callback per record
// (a stage run's completion, a user's wake-up, a call's timers): the
// fan-out cell makes 2.81 mallocs per request, 12.8 before, and the
// session cell 0.0010, 0.0043 before.
//
// Under the race detector only the malloc ceilings are read: its
// instrumentation allocates bytes of its own, so a byte count there varies
// from run to run (the policy cell read 1.88 to 2.01 against 2.1).
func TestRequestPathAllocationCeiling(t *testing.T) {
	cells := []struct {
		name     string
		build    func() (*sim.Sim, error)
		duration des.Time
		ceiling  float64 // mallocs per completed request over the whole run
		bytes    float64 // bytes allocated per completed request, read without -race only
	}{
		{
			name: "twotier",
			build: func() (*sim.Sim, error) {
				return TwoTier(TwoTierConfig{Seed: 1, QPS: 40000, Network: true})
			},
			duration: des.Second,
			ceiling:  0.0079, // measured 0.00716
			bytes:    2.01,   // measured 1.822, also under the race detector
		},
		{
			name: "fanout",
			build: func() (*sim.Sim, error) {
				return TailAtScale(TailAtScaleConfig{Seed: 1, QPS: 50, Servers: 600, SlowFraction: 0.01})
			},
			duration: 10 * des.Second,
			ceiling:  3.09, // measured 2.811: 600 of its 1,307 mallocs bind a stage run's completion
			bytes:    1418, // measured 1,289
		},
		{
			// BenchmarkSimulatorEventRateWithPolicies' shape: a timeout armed
			// and abandoned on every memcached call (3.1 before PR 16).
			name: "twotier+policy",
			build: func() (*sim.Sim, error) {
				s, err := TwoTier(TwoTierConfig{Seed: 1, QPS: 40000, Network: true})
				if err != nil {
					return nil, err
				}
				return s, s.SetServicePolicy("memcached", fault.Policy{
					Timeout: des.Second, MaxRetries: 2, BackoffBase: des.Millisecond,
				})
			},
			duration: des.Second,
			ceiling:  0.0093, // measured 0.00823, 0.00838 under the race detector
			bytes:    2.1,    // measured 1.869, 1.88 to 2.01 under the race detector
		},
		{
			name:     "threeregion+policies",
			build:    guardedThreeRegion,
			duration: 2 * des.Second,
			ceiling:  0.228, // measured 0.2072
			bytes:    22.1,  // measured 20.08
		},
		{
			name:     "sessions+hybrid",
			build:    hybridSessions,
			duration: 6 * des.Second,
			ceiling:  0.00113, // measured 0.001026: the wake callback of each simulated user's record
			bytes:    0.26,    // measured 0.2358
		},
	}
	for _, c := range cells {
		s, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := s.Run(0, c.duration)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		requests := rep.Completions + rep.BackgroundCompletions
		perReq := float64(after.Mallocs-before.Mallocs) / float64(requests)
		bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(requests)
		t.Logf("%s: %.6f mallocs and %.4f bytes per request over %d requests", c.name, perReq, bytesPerReq, requests)
		if perReq > c.ceiling {
			t.Errorf("%s: %.4g mallocs per request, ceiling %.4g", c.name, perReq, c.ceiling)
		}
		if !raceBuild && bytesPerReq > c.bytes {
			t.Errorf("%s: %.4g bytes per request, ceiling %.4g", c.name, bytesPerReq, c.bytes)
		}
	}
}

// TestFanoutBuildAllocationCeiling bounds what building the 600-leaf
// fan-out allocates, so per-instance state stays small: at 12.8 KB each, a
// latency histogram per instance and per stage made this 17.1 MB. The
// ceiling sits 10 % over the 792 KB measured under the race detector; the
// plain build measured 699 KB. A stage queue's inline slot takes each
// FIFO from the 32-byte size class to the 48-byte one, so the build now
// measures 709 KB, and 806 KB under the race detector.
func TestFanoutBuildAllocationCeiling(t *testing.T) {
	const ceiling = 880_000 // bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := TailAtScale(TailAtScaleConfig{Seed: 1, QPS: 50, Servers: 600, SlowFraction: 0.01})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("building 600 leaves allocates %d bytes", got)
	if got > ceiling {
		t.Errorf("building 600 leaves allocates %d bytes, ceiling %d", got, ceiling)
	}
}
