package apps

import (
	"runtime"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/sim"
)

// TestRequestPathAllocationCeiling keeps the request path allocation-free:
// jobs, requests, request state, stage runs and queue buffers are all
// recycled, so what a run still allocates is the one-off growth of those
// pools, not something per request. The ceilings are the figures measured
// when the pools went in (PR 12) plus 10 %; before, the two-tier cell
// allocated 70 times per request and the fan-out cell 3,000 times.
func TestRequestPathAllocationCeiling(t *testing.T) {
	cells := []struct {
		name     string
		build    func() (*sim.Sim, error)
		duration des.Time
		ceiling  float64 // mallocs per completed request over the whole run
	}{
		{
			name: "twotier",
			build: func() (*sim.Sim, error) {
				return TwoTier(TwoTierConfig{Seed: 1, QPS: 40000, Network: true})
			},
			duration: des.Second,
			ceiling:  0.062, // measured 0.056
		},
		{
			name: "fanout",
			build: func() (*sim.Sim, error) {
				return TailAtScale(TailAtScaleConfig{Seed: 1, QPS: 50, Servers: 600, SlowFraction: 0.01})
			},
			duration: 10 * des.Second,
			ceiling:  18.3, // measured 16.63
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
		t.Logf("%s: %.3f mallocs per request over %d requests", c.name, perReq, rep.Completions)
		if perReq > c.ceiling {
			t.Errorf("%s: %.3f mallocs per request, ceiling %.3f", c.name, perReq, c.ceiling)
		}
	}
}
