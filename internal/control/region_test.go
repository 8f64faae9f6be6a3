package control

import (
	"fmt"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// geoScenario builds the canonical region-loss drill: a geo-replicated
// store with one replica per region (east/west, 5ms WAN apart), an
// east-homed client, a full crash of the east region at 100ms healed at
// 300ms, and a control plane with the detector plus region failover.
func geoScenario(t *testing.T, seed uint64) (*sim.Sim, *Plane) {
	t.Helper()
	s := sim.New(sim.Options{Seed: seed})
	s.AddMachine("e0", 4, cluster.FreqSpec{})
	s.AddMachine("w0", 4, cluster.FreqSpec{})
	geo, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"e0"}},
		{Name: "west", Machines: []string{"w0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	geo.SetDefaultWAN(cluster.WANLink{Latency: 5 * des.Millisecond})
	if _, err := s.Deploy(service.SingleStage("store", dist.NewDeterministic(200*1000)), sim.RoundRobin,
		sim.Placement{Machine: "e0", Cores: 2},
		sim.Placement{Machine: "w0", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplication("store", sim.ReplicationSpec{Lag: 20 * des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{Trees: []graph.Tree{{
		Name: "t", Weight: 1, Root: 0,
		Nodes: []graph.Node{{ID: 0, Service: "store", Instance: -1}},
	}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(1000), Region: "east"})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 100 * des.Millisecond, Kind: fault.CrashDomain, Domain: "east"},
		{At: 300 * des.Millisecond, Kind: fault.RecoverDomain, Domain: "east"},
	}}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		RegionFailover: &RegionFailoverConfig{
			CheckInterval: 10 * des.Millisecond,
			DrainDelay:    20 * des.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, plane
}

// TestRegionFailoverPromotesAndRestores: losing every instance in the
// east region declares the region lost, and after the drain grace the
// nearest healthy replica region (west) is promoted — so the stale
// window on the failed-over traffic is bounded by the replication lag.
// Healing east restores the region without undoing the promotion.
func TestRegionFailoverPromotesAndRestores(t *testing.T) {
	s, plane := geoScenario(t, 42)
	rep, err := s.Run(0, 600*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	if st.RegionLosses == 0 {
		t.Fatalf("east loss never declared: %s", st.Fingerprint())
	}
	if st.RegionFailovers != 1 {
		t.Fatalf("region failovers = %d, want exactly 1 (west promoted once): %s",
			st.RegionFailovers, st.Fingerprint())
	}
	if st.RegionRestores == 0 {
		t.Fatalf("east heal never restored the region: %s", st.Fingerprint())
	}
	dep, _ := s.Deployment("store")
	when, ok := dep.PromotedAt("west")
	if !ok {
		t.Fatal("west was never promoted")
	}
	if when < 120*des.Millisecond || when > 300*des.Millisecond {
		t.Fatalf("west promoted at %v, want within the outage after detection+drain", when)
	}
	// Failover traffic crossed the WAN and was stale only until the
	// promoted region caught up.
	if rep.CrossRegionCalls == 0 {
		t.Fatal("no cross-region calls during the east outage")
	}
	if rep.StaleReads == 0 || rep.StaleReads >= rep.CrossRegionCalls {
		t.Fatalf("stale reads = %d of %d cross-region calls, want a strict non-zero subset",
			rep.StaleReads, rep.CrossRegionCalls)
	}
	if l := leaked(rep); l != 0 {
		t.Fatalf("leaked %d requests", l)
	}
	plane.Stop()
	for s.Engine().Step() {
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionDrainGraceSkipsTransientLoss: a region that heals within the
// drain grace is never failed over — the loss is declared and restored,
// but no promotion happens.
func TestRegionDrainGraceSkipsTransientLoss(t *testing.T) {
	s := sim.New(sim.Options{Seed: 9})
	s.AddMachine("e0", 4, cluster.FreqSpec{})
	s.AddMachine("w0", 4, cluster.FreqSpec{})
	if _, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"e0"}},
		{Name: "west", Machines: []string{"w0"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(service.SingleStage("store", dist.NewDeterministic(200*1000)), sim.RoundRobin,
		sim.Placement{Machine: "e0", Cores: 2},
		sim.Placement{Machine: "w0", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplication("store", sim.ReplicationSpec{Lag: 20 * des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Crash east just long enough for the detector to fire, then heal it
	// inside the long drain grace.
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 100 * des.Millisecond, Kind: fault.CrashDomain, Domain: "east"},
		{At: 180 * des.Millisecond, Kind: fault.RecoverDomain, Domain: "east"},
	}}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		RegionFailover: &RegionFailoverConfig{
			CheckInterval: 10 * des.Millisecond,
			DrainDelay:    200 * des.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().RunUntil(600 * des.Millisecond)
	st := plane.Stats()
	if st.RegionLosses == 0 || st.RegionRestores == 0 {
		t.Fatalf("transient loss not observed: %s", st.Fingerprint())
	}
	if st.RegionFailovers != 0 {
		t.Fatalf("transient loss was failed over despite healing inside the drain grace: %s", st.Fingerprint())
	}
	dep, _ := s.Deployment("store")
	if _, promoted := dep.PromotedAt("west"); promoted {
		t.Fatal("west promoted for a loss that healed during the drain")
	}
	plane.Stop()
}

// TestRegionFailoverValidation: region failover without a detector or
// without a geography is rejected eagerly.
func TestRegionFailoverValidation(t *testing.T) {
	flat := sim.New(sim.Options{Seed: 1})
	flat.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := flat.Deploy(service.SingleStage("s", dist.NewDeterministic(1000)), sim.RoundRobin,
		sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(flat, Config{
		Detector:       &DetectorConfig{},
		RegionFailover: &RegionFailoverConfig{},
	}); err == nil {
		t.Fatal("region failover accepted without a geography")
	}
	geo := sim.New(sim.Options{Seed: 1})
	geo.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := geo.SetGeography([]cluster.Region{{Name: "solo", Machines: []string{"m0"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := geo.Deploy(service.SingleStage("s", dist.NewDeterministic(1000)), sim.RoundRobin,
		sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(geo, Config{
		RegionFailover: &RegionFailoverConfig{},
	}); err == nil {
		t.Fatal("region failover accepted without a detector")
	}
}

// TestRegionFailoverDeterminism: the determinism guarantee covers the
// whole region-failover loop — two same-seed runs of the scenario yield
// bit-identical report and control-plane fingerprints and both drain. No
// pinned golden hashes the control-plane fingerprint, so this is what
// catches nondeterminism (map order, say) in the failover path.
func TestRegionFailoverDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		var fps [2]string
		for i := range fps {
			s, plane := geoScenario(t, seed)
			rep, err := s.Run(0, 600*des.Millisecond)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, i, err)
			}
			fps[i] = fmt.Sprintf("arr=%d comp=%d to=%d xr=%d stale=%d p50=%v p99=%v | %s",
				rep.Arrivals, rep.Completions, rep.Timeouts, rep.CrossRegionCalls, rep.StaleReads,
				rep.Latency.P50(), rep.Latency.P99(), plane.Stats().Fingerprint())
			plane.Stop()
			for s.Engine().Step() {
			}
			if err := s.VerifyDrained(); err != nil {
				t.Fatalf("seed %d run %d: %v", seed, i, err)
			}
		}
		if fps[0] != fps[1] {
			t.Fatalf("seed %d: same-seed runs diverge with region failover active\n %s\n %s", seed, fps[0], fps[1])
		}
	}
}
