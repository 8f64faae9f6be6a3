package uqsim

// Hybrid-fidelity cost guard: a sampled foreground over a fluid background
// must cost what its simulated users cost, not what the population or the
// core count would. The timed counterpart is the hybrid_1m workload of the
// repository benchmark (bash bench/run.sh -workload hybrid_1m).

import (
	"runtime"
	"testing"
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

// TestHybridCostScalesWithForeground is the count-based guard on a
// 100,000-user / 1,652-core cell, with a flash crowd (rho 0.6
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
	// The crowd's ramp-down revisits the ramp-up's populations, and each
	// epoch evaluates the point the closed solver's last step just did: the
	// run's M/M/k kernel runs the O(k) recurrence once per distinct point.
	if w.Recurrences != 21 {
		t.Errorf("%d Erlang-C recurrences, want 21: one per distinct operating point", w.Recurrences)
	}
	// One order-list entry per background user alone was 8 bytes × 125,000.
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("run allocated %d bytes, want under 2 MiB", got)
	}
}
