package sim

import (
	"math"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/hybrid"
)

// TestClosedPopulationRateTotalOutage: when every replica of a modeled
// service is down (total outage under a fault plan) the closed fixed point
// must report zero throughput — not an unbounded capacity that leaks +Inf
// into the fluid tier's accrual and snapshot conversion.
func TestClosedPopulationRateTotalOutage(t *testing.T) {
	dead := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 0 }},
	}
	if got := closedRateOf(1000, 0.1, dead); got != 0 {
		t.Fatalf("total outage rate = %v, want 0", got)
	}
	mixed := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 4 }},
		{Name: "db", Visits: 2, MeanServiceS: 0.005, Servers: func() int { return 0 }},
	}
	if got := closedRateOf(1000, 0.1, mixed); got != 0 {
		t.Fatalf("required-service outage rate = %v, want 0", got)
	}
	healthy := []hybrid.Service{
		{Name: "web", Visits: 1, MeanServiceS: 0.010, Servers: func() int { return 4 }},
	}
	got := closedRateOf(1000, 0.1, healthy)
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("healthy rate = %v, want finite positive", got)
	}
	if bottleneck := 4.0 / 0.010; got > bottleneck {
		t.Fatalf("healthy rate %v exceeds bottleneck capacity %v", got, bottleneck)
	}
}

// TestHybridRunLeavesClientPatternUnthinned: setupHybrid must install the
// thinned pattern on the run, not mutate the stored client config — a
// second hybrid run on the same Sim would otherwise thin the arrival rate
// twice (rate · sampleRate²).
func TestHybridRunLeavesClientPatternUnthinned(t *testing.T) {
	const qps = 200.0
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 4, qps)
	s.SetHybrid(hybrid.Config{SampleRate: 0.25})
	r, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.clientCfg.Pattern.RateAt(0); got != qps {
		t.Fatalf("stored client pattern rate = %v after hybrid run, want %v (must stay unthinned)", got, qps)
	}
	// The generator itself did run thinned: ~sampleRate·qps foreground
	// arrivals over the second, nowhere near the full rate.
	if r.Arrivals == 0 || float64(r.Arrivals) > 0.5*qps {
		t.Fatalf("foreground arrivals %d, want ~%v (thinned)", r.Arrivals, 0.25*qps)
	}
}
