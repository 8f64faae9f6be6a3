package power

import (
	"testing"

	"uqsim/internal/apps"
	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

func TestTupleRelaxation(t *testing.T) {
	a := tuple{10, 20}
	b := tuple{10, 20}
	if !a.noMoreRelaxedThan(b) {
		t.Fatal("equal tuples are not more relaxed")
	}
	c := tuple{11, 20} // more relaxed than b
	if c.noMoreRelaxedThan(b) {
		t.Fatal("c is strictly more relaxed than b")
	}
	d := tuple{9, 25} // incomparable
	if !d.noMoreRelaxedThan(b) {
		t.Fatal("incomparable tuples pass the filter")
	}
	e := tuple{5, 10} // strictly tighter
	if !e.noMoreRelaxedThan(b) {
		t.Fatal("tighter tuples pass the filter")
	}
}

func TestBucketInsertFiltersRelaxed(t *testing.T) {
	b := &bucket{}
	b.failing = append(b.failing, tuple{10, 10})
	b.insert(tuple{11, 11}) // more relaxed than the failing tuple
	if len(b.tuples) != 0 {
		t.Fatal("relaxed tuple should be rejected")
	}
	b.insert(tuple{9, 9})
	if len(b.tuples) != 1 {
		t.Fatal("tighter tuple should insert")
	}
}

func TestBucketInsertBounded(t *testing.T) {
	b := &bucket{}
	for i := 0; i < 200; i++ {
		b.insert(tuple{des.Time(i)})
	}
	if len(b.tuples) > 64 {
		t.Fatalf("tuples unbounded: %d", len(b.tuples))
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.New(sim.Options{})
	tiers := []*Tier{{Name: "a"}}
	if _, err := New(s, Config{Interval: des.Second}, tiers); err == nil {
		t.Fatal("missing target should fail")
	}
	if _, err := New(s, Config{Target: des.Millisecond}, tiers); err == nil {
		t.Fatal("missing interval should fail")
	}
	if _, err := New(s, Config{Target: des.Millisecond, Interval: des.Second}, nil); err == nil {
		t.Fatal("missing tiers should fail")
	}
}

// buildManaged wires a power manager onto the 2-tier app under the given
// constant load, and returns both.
func buildManaged(t *testing.T, qps float64, interval des.Time, seed uint64) (*sim.Sim, *Manager) {
	t.Helper()
	s, err := apps.TwoTier(apps.TwoTierConfig{Seed: seed, QPS: qps, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	var tiers []*Tier
	for _, name := range []string{"nginx", "memcached"} {
		dep, ok := s.Deployment(name)
		if !ok {
			t.Fatalf("deployment %s missing", name)
		}
		tier := &Tier{Name: name}
		for _, in := range dep.Instances {
			tier.Allocs = append(tier.Allocs, in.Alloc)
		}
		tiers = append(tiers, tier)
	}
	m, err := New(s, Config{
		Target:   5 * des.Millisecond,
		Interval: interval,
		Seed:     seed,
	}, tiers)
	if err != nil {
		t.Fatal(err)
	}
	s.OnRequestDone = m.Observe
	m.Start()
	return s, m
}

func TestManagerLowersFrequencyUnderLightLoad(t *testing.T) {
	s, m := buildManaged(t, 5000, 100*des.Millisecond, 11)
	if _, err := s.Run(0, 10*des.Second); err != nil {
		t.Fatal(err)
	}
	if m.Cycles() < 80 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
	// Light load leaves huge latency slack: the controller should settle
	// well below nominal frequency.
	if m.MeanFrequency() > 2300 {
		t.Fatalf("mean frequency %v MHz, expected meaningful slowdown", m.MeanFrequency())
	}
	// ... while keeping violations rare.
	if m.ViolationRate() > 0.15 {
		t.Fatalf("violation rate %v", m.ViolationRate())
	}
	// Frequencies stay on the DVFS grid.
	for _, tier := range []string{"nginx", "memcached"} {
		for _, p := range m.FreqTrace[tier].Points() {
			f := cluster.DefaultFreqSpec.Clamp(p.V)
			if f != p.V {
				t.Fatalf("tier %s frequency %v off grid", tier, p.V)
			}
		}
	}
}

func TestManagerRecoversFromViolations(t *testing.T) {
	// Heavier load: less slack. The controller must keep QoS violations
	// bounded and react by speeding tiers back up.
	s, m := buildManaged(t, 30000, 100*des.Millisecond, 12)
	if _, err := s.Run(0, 10*des.Second); err != nil {
		t.Fatal(err)
	}
	if m.ViolationRate() > 0.25 {
		t.Fatalf("violation rate %v too high under managed load", m.ViolationRate())
	}
	if len(m.TailTrace.Points()) == 0 {
		t.Fatal("no tail trace")
	}
}

func TestManagerDiurnalViolationRatesGrowWithInterval(t *testing.T) {
	// Table III: longer decision intervals react more slowly to the
	// diurnal swing and violate QoS more often.
	rate := func(interval des.Time) float64 {
		t.Helper()
		pattern := workload.Diurnal{
			Base: 25000, Amplitude: 20000, Period: 6 * des.Second, Floor: 2000,
		}
		s, err := apps.TwoTier(apps.TwoTierConfig{Seed: 13, Pattern: pattern, Network: true})
		if err != nil {
			t.Fatal(err)
		}
		var tiers []*Tier
		for _, name := range []string{"nginx", "memcached"} {
			dep, _ := s.Deployment(name)
			tier := &Tier{Name: name}
			for _, in := range dep.Instances {
				tier.Allocs = append(tier.Allocs, in.Alloc)
			}
			tiers = append(tiers, tier)
		}
		m, err := New(s, Config{Target: 5 * des.Millisecond, Interval: interval, Seed: 13}, tiers)
		if err != nil {
			t.Fatal(err)
		}
		s.OnRequestDone = m.Observe
		m.Start()
		if _, err := s.Run(0, 12*des.Second); err != nil {
			t.Fatal(err)
		}
		return m.ViolationRate()
	}
	fast := rate(100 * des.Millisecond)
	slow := rate(des.Second)
	if fast > slow+0.02 {
		t.Fatalf("violation rates: 0.1s=%v should not exceed 1s=%v", fast, slow)
	}
	if slow > 0.4 {
		t.Fatalf("1s violation rate %v implausibly high", slow)
	}
}

func TestNormalizedEnergyBounds(t *testing.T) {
	s, m := buildManaged(t, 5000, 100*des.Millisecond, 14)
	if _, err := s.Run(0, 5*des.Second); err != nil {
		t.Fatal(err)
	}
	e := m.NormalizedEnergy()
	if e <= 0 || e > 1 {
		t.Fatalf("normalized energy %v outside (0,1]", e)
	}
	// Cubic model floor: (1200/2600)³ ≈ 0.098.
	if e < 0.09 {
		t.Fatalf("normalized energy %v below physical floor", e)
	}
	// Light load should save meaningful energy vs nominal.
	if e > 0.8 {
		t.Fatalf("normalized energy %v, expected real savings at light load", e)
	}
}

func TestViolationsTriggerSpeedUp(t *testing.T) {
	// Run close to capacity with a tight QoS so violations occur and the
	// recovery path exercises.
	s, err := apps.TwoTier(apps.TwoTierConfig{Seed: 15, QPS: 72000, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	var tiers []*Tier
	for _, name := range []string{"nginx", "memcached"} {
		dep, _ := s.Deployment(name)
		tier := &Tier{Name: name}
		for _, in := range dep.Instances {
			tier.Allocs = append(tier.Allocs, in.Alloc)
		}
		tiers = append(tiers, tier)
	}
	m, err := New(s, Config{
		Target:   500 * des.Microsecond, // tight: ~p99 at this load
		Interval: 100 * des.Millisecond,
		Seed:     15,
	}, tiers)
	if err != nil {
		t.Fatal(err)
	}
	// Start one tier slowed so a violation is guaranteed early.
	tiers[0].step(-6)
	s.OnRequestDone = m.Observe
	m.Start()
	if _, err := s.Run(0, 3*des.Second); err != nil {
		t.Fatal(err)
	}
	if m.Violations() == 0 {
		t.Fatal("expected violations at tight QoS near capacity")
	}
	if m.ViolationRate() <= 0 || m.ViolationRate() > 1 {
		t.Fatalf("violation rate %v", m.ViolationRate())
	}
	// Recovery must have pushed nginx back toward nominal.
	if tiers[0].freq() < 1800 {
		t.Fatalf("nginx freq %v after violations, expected recovery upward", tiers[0].freq())
	}
}
