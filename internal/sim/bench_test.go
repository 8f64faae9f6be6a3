package sim

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/service"
)

// benchDeployment builds an 8-instance deployment and optionally degrades
// its healthy set (one killed, one ejected) so the benchmark exercises the
// non-trivial picking path.
func benchDeployment(b testing.TB, lb Policy, degraded bool) *Deployment {
	b.Helper()
	s := New(Options{Seed: 7})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	placements := make([]Placement, 8)
	for i := range placements {
		placements[i] = Placement{Machine: "m0", Cores: 1}
	}
	dep, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		lb, placements...)
	if err != nil {
		b.Fatal(err)
	}
	if degraded {
		s.killInstance(0, dep, dep.Instances[0])
		dep.Eject(dep.Instances[1])
	}
	return dep
}

// BenchmarkPickHealthy measures the load-balancer picking path. Before the
// incrementally maintained healthy set, the degraded cases allocated a
// fresh slice per dispatch; all cases must now report 0 allocs/op.
func BenchmarkPickHealthy(b *testing.B) {
	cases := []struct {
		name     string
		lb       Policy
		degraded bool
	}{
		{"rr-all-healthy", RoundRobin, false},
		{"rr-degraded", RoundRobin, true},
		{"random-degraded", Random, true},
		{"leastloaded-degraded", LeastLoaded, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dep := benchDeployment(b, c.lb, c.degraded)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dep.pickFrom(dep.healthy, &dep.rr) == nil {
					b.Fatal("no healthy instance")
				}
			}
		})
	}
}

// TestPickHealthyNoAllocs pins the satellite fix: the degraded picking
// path must not allocate.
func TestPickHealthyNoAllocs(t *testing.T) {
	dep := benchDeployment(t, RoundRobin, true)
	allocs := testing.AllocsPerRun(1000, func() {
		if dep.pickFrom(dep.healthy, &dep.rr) == nil {
			t.Fatal("no healthy instance")
		}
	})
	if allocs != 0 {
		t.Fatalf("a healthy pick allocates %.1f times; want 0", allocs)
	}
}
