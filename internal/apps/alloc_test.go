package apps

import (
	"runtime"
	"testing"

	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
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
func TestRequestPathAllocationCeiling(t *testing.T) {
	cells := []struct {
		name     string
		build    func() (*sim.Sim, error)
		duration des.Time
		ceiling  float64 // mallocs per completed request over the whole run
		bytes    float64 // bytes allocated per completed request
	}{
		{
			name: "twotier",
			build: func() (*sim.Sim, error) {
				return TwoTier(TwoTierConfig{Seed: 1, QPS: 40000, Network: true})
			},
			duration: des.Second,
			ceiling:  0.036, // measured 0.032
			bytes:    2.05,  // measured 1.86, also under the race detector
		},
		{
			name: "fanout",
			build: func() (*sim.Sim, error) {
				return TailAtScale(TailAtScaleConfig{Seed: 1, QPS: 50, Servers: 600, SlowFraction: 0.01})
			},
			duration: 10 * des.Second,
			ceiling:  14.1, // measured 12.81
			bytes:    1780, // measured 1,616
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
			ceiling:  0.037, // measured 0.033
			bytes:    2.1,   // measured 1.9
		},
		{
			name:     "threeregion+policies",
			build:    guardedThreeRegion,
			duration: 2 * des.Second,
			ceiling:  0.355, // measured 0.318
			bytes:    23.2,  // measured 21.1
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
		perReq := float64(after.Mallocs-before.Mallocs) / float64(rep.Completions)
		bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Completions)
		t.Logf("%s: %.3f mallocs and %.1f bytes per request over %d requests", c.name, perReq, bytesPerReq, rep.Completions)
		if perReq > c.ceiling {
			t.Errorf("%s: %.3f mallocs per request, ceiling %.3f", c.name, perReq, c.ceiling)
		}
		if bytesPerReq > c.bytes {
			t.Errorf("%s: %.1f bytes per request, ceiling %.1f", c.name, bytesPerReq, c.bytes)
		}
	}
}

// TestFanoutBuildAllocationCeiling bounds what building the 600-leaf
// fan-out allocates, so per-instance state stays small: at 12.8 KB each, a
// latency histogram per instance and per stage made this 17.1 MB. The
// ceiling sits 10 % over the 792 KB measured under the race detector; the
// plain build measures 688 KB.
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
