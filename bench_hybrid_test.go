package uqsim

// Hybrid-fidelity speedup benchmark: how many simulated user-seconds per
// wall-clock second the engine sustains at full fidelity versus a sampled
// foreground over a fluid background. `make bench-hybrid` records the
// result in BENCH_hybrid.json; the speedup_x metric is the committed
// trajectory point for the "million-user workloads" claim.

import (
	"runtime"
	"testing"
	"time"
)

// hybridBenchSim assembles a session population over one exponential
// service sized for rho ≈ 0.6 at 4 cores per 242 users.
func hybridBenchSim(b testing.TB, users, cores int, hc *HybridConfig, crowds ...FlashCrowd) *Sim {
	b.Helper()
	s := New(Options{Seed: 42})
	s.AddMachine("m0", cores, DefaultFreqSpec)
	if _, err := s.Deploy(SingleStageService("front", Exponential(10*Millisecond)),
		RoundRobin, Placement{Machine: "m0", Cores: cores}); err != nil {
		b.Fatal(err)
	}
	if err := s.SetTopology(LinearTopology("main", "front")); err != nil {
		b.Fatal(err)
	}
	s.SetClient(ClientConfig{Sessions: &SessionConfig{
		Users: users,
		Journeys: []Journey{{Name: "browse", Weight: 1, Steps: []SessionStep{
			{Tree: 0, Think: Exponential(Second)},
			{Tree: 0, Think: Exponential(Second)},
		}}},
		Crowds: crowds,
	}})
	if hc != nil {
		s.SetHybrid(*hc)
	}
	return s
}

func BenchmarkHybridFidelity(b *testing.B) {
	const (
		baseUsers = 242
		baseCores = 4
		bigUsers  = 100_000
	)
	grow := bigUsers / baseUsers
	for i := 0; i < b.N; i++ {
		full := hybridBenchSim(b, baseUsers, baseCores, nil)
		start := time.Now()
		if _, err := full.Run(Second, 5*Second); err != nil {
			b.Fatal(err)
		}
		fullWall := time.Since(start)

		sampled := hybridBenchSim(b, bigUsers, baseCores*grow,
			&HybridConfig{SampleRate: float64(baseUsers) / bigUsers})
		start = time.Now()
		rep, err := sampled.Run(Second, 5*Second)
		if err != nil {
			b.Fatal(err)
		}
		hybWall := time.Since(start)
		if rep.BackgroundArrivals != rep.BackgroundCompletions+rep.BackgroundShed {
			b.Fatalf("background conservation: %d != %d + %d",
				rep.BackgroundArrivals, rep.BackgroundCompletions, rep.BackgroundShed)
		}

		fullRate := baseUsers / fullWall.Seconds()
		hybRate := bigUsers / hybWall.Seconds()
		b.ReportMetric(fullRate, "full_users_s/op")
		b.ReportMetric(hybRate, "hybrid_users_s/op")
		b.ReportMetric(hybRate/fullRate, "speedup_x")
	}
}

// TestHybridCostScalesWithForeground is the count-based guard on the
// benchmark's 100,000-user / 1,652-core cell, with a flash crowd (rho 0.6
// to 0.75) so the operating point moves every epoch of its ramps: the
// run's cost must follow the ~242 simulated users, not the population or
// the core count. Counts repeat exactly, so this holds on a host too noisy
// to time.
func TestHybridCostScalesWithForeground(t *testing.T) {
	const users, baseUsers, baseCores = 100_000, 242, 4
	s := hybridBenchSim(t, users, baseCores*(users/baseUsers),
		&HybridConfig{SampleRate: float64(baseUsers) / users},
		FlashCrowd{At: 2 * Second, Extra: users / 4, RampUp: Second, Hold: Second, RampDown: Second})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.Run(Second, 5*Second)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	w := rep.FluidWork
	t.Logf("fluid work %+v, %d bytes allocated", w, after.TotalAlloc-before.TotalAlloc)
	// Both ramps re-solve the closed fixed point every 50 ms epoch.
	if w.Solves < 40 {
		t.Fatalf("%d fixed-point solves; the crowd's ramps alone span 40 epochs", w.Solves)
	}
	// Unsaturated tiers converge bitwise in one or two steps; the fixed-
	// length loop took 64 per solve.
	if w.Iterations > 2*w.Solves || w.Capped != 0 {
		t.Errorf("%d solves took %d iterations (%d ran to the cap), want at most 2 per solve",
			w.Solves, w.Iterations, w.Capped)
	}
	// One order-list entry per background user alone was 8 bytes × 125,000.
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("run allocated %d bytes, want under 2 MiB", got)
	}
}
