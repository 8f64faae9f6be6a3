package sim

import (
	"strings"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/netfault"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// twoRegionSim builds two single-machine regions (east: m0, west: m1)
// with a 5ms WAN, an east-homed client, and one "svc" instance per
// region, topology svc-only.
func twoRegionSim(t *testing.T, lag des.Time) *Sim {
	t.Helper()
	s := New(Options{Seed: 7})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 4, cluster.FreqSpec{})
	geo, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"m0"}},
		{Name: "west", Machines: []string{"m1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := geo.SetDefaultWAN(cluster.WANLink{Latency: 5 * des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	bp := service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond)))
	if _, err := s.Deploy(bp, RoundRobin,
		Placement{Machine: "m0", Cores: 2}, Placement{Machine: "m1", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplication("svc", ReplicationSpec{Lag: lag}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(&graph.Topology{Trees: []graph.Tree{{
		Name: "t", Weight: 1, Root: 0,
		Nodes: []graph.Node{{ID: 0, Service: "svc", Instance: -1}},
	}}}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(500), Region: "east"})
	return s
}

// TestNearestRegionRouting: with both regions healthy, an east-homed
// client's traffic stays entirely in east — zero cross-region calls,
// zero WAN latency.
func TestNearestRegionRouting(t *testing.T) {
	s := twoRegionSim(t, 10*des.Millisecond)
	rep, err := s.Run(0, 200*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	if rep.CrossRegionCalls != 0 || rep.StaleReads != 0 {
		t.Fatalf("healthy home region but %d cross-region calls, %d stale reads",
			rep.CrossRegionCalls, rep.StaleReads)
	}
	var east, west uint64
	for _, ir := range rep.Instances {
		switch ir.Machine {
		case "m0":
			east = ir.Completed
		case "m1":
			west = ir.Completed
		}
	}
	if east == 0 || west != 0 {
		t.Fatalf("east=%d west=%d completions; want all traffic in east", east, west)
	}
	if p99 := rep.Latency.P99(); p99 >= 5*des.Millisecond {
		t.Fatalf("intra-region p99 %v pays WAN latency", p99)
	}
}

// TestRegionLossFailsOverAndPaysWAN: crashing the client's home region
// shifts traffic to the other region's replicas; every redirected call
// crosses the WAN (and is stale while unpromoted), and recovery routes
// traffic home again.
func TestRegionLossFailsOverAndPaysWAN(t *testing.T) {
	s := twoRegionSim(t, 10*des.Millisecond)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 50 * des.Millisecond, Kind: fault.CrashDomain, Domain: "east"},
		{At: 150 * des.Millisecond, Kind: fault.RecoverDomain, Domain: "east"},
	}}); err != nil {
		t.Fatal(err)
	}
	// Promote west mid-loss: reads become fresh one lag later.
	dep, _ := s.Deployment("svc")
	s.Engine().At(100*des.Millisecond, func(now des.Time) { dep.Promote(now, "west") })

	rep, err := s.Run(0, 250*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var east, west uint64
	for _, ir := range rep.Instances {
		switch ir.Machine {
		case "m0":
			east = ir.Completed
		case "m1":
			west = ir.Completed
		}
	}
	if east == 0 || west == 0 {
		t.Fatalf("east=%d west=%d completions; want both regions serving", east, west)
	}
	if rep.CrossRegionCalls == 0 {
		t.Fatal("region loss produced no cross-region calls")
	}
	if rep.StaleReads == 0 {
		t.Fatal("unpromoted cross-region serves counted no stale reads")
	}
	// Stales stop once west is fresh (promotion at 100ms + 10ms lag),
	// so redirected-but-fresh traffic must exist: stale < cross.
	if rep.StaleReads >= rep.CrossRegionCalls {
		t.Fatalf("stale=%d cross=%d; promotion never made west fresh",
			rep.StaleReads, rep.CrossRegionCalls)
	}
	if p99 := rep.Latency.P99(); p99 < 5*des.Millisecond {
		t.Fatalf("failover p99 %v never paid the 5ms WAN", p99)
	}
	total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
		rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight)
	if rep.Arrivals != total {
		t.Fatalf("conservation: arrivals %d != outcomes %d", rep.Arrivals, total)
	}
}

func TestReplicationFreshness(t *testing.T) {
	s := twoRegionSim(t, 10*des.Millisecond)
	dep, _ := s.Deployment("svc")
	if dep.ReplicaRegions() == nil || dep.regions.lag != 10*des.Millisecond {
		t.Fatal("replication spec not recorded")
	}
	west := s.Geography().RegionIndex("west")
	if dep.regions.freshAt(0, west) {
		t.Fatal("fresh before promotion")
	}
	dep.Promote(20*des.Millisecond, "west")
	if dep.regions.freshAt(25*des.Millisecond, west) {
		t.Fatal("fresh before lag elapsed")
	}
	if !dep.regions.freshAt(30*des.Millisecond, west) {
		t.Fatal("stale after lag elapsed")
	}
	// Re-promotion keeps the earlier clock.
	dep.Promote(40*des.Millisecond, "west")
	if pt, _ := dep.PromotedAt("west"); pt != 20*des.Millisecond {
		t.Fatalf("re-promotion moved the clock to %v", pt)
	}
}

func TestGeographySetupErrors(t *testing.T) {
	s := New(Options{Seed: 1})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 4, cluster.FreqSpec{})
	if err := s.SetDomains([]netfault.Domain{{Name: "east", Machines: []string{"m0"}}}); err != nil {
		t.Fatal(err)
	}
	// A region may not shadow a declared failure domain.
	if _, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"m0"}},
		{Name: "west", Machines: []string{"m1"}},
	}); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("region/domain collision accepted: %v", err)
	}

	s2 := New(Options{Seed: 1})
	s2.AddMachine("m0", 4, cluster.FreqSpec{})
	s2.AddMachine("m1", 4, cluster.FreqSpec{})
	regions := []cluster.Region{
		{Name: "east", Machines: []string{"m0"}},
		{Name: "west", Machines: []string{"m1"}},
	}
	if _, err := s2.SetGeography(regions); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SetGeography(regions); err == nil {
		t.Fatal("double SetGeography accepted")
	}
	// Nor may a later domain shadow a region.
	if err := s2.SetDomains([]netfault.Domain{{Name: "west", Machines: []string{"m1"}}}); err == nil {
		t.Fatal("domain shadowing a region accepted")
	}
	bp := service.SingleStage("svc", dist.NewDeterministic(1000))
	if _, err := s2.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	// Replication requires coverage of at least two regions.
	if err := s2.SetReplication("svc", ReplicationSpec{}); err == nil {
		t.Fatal("single-region replication accepted")
	}
	if err := s2.SetReplication("svc", ReplicationSpec{Regions: []string{"mars"}}); err == nil {
		t.Fatal("unknown replication region accepted")
	}
	if err := s2.SetReplication("svc", ReplicationSpec{Regions: []string{"west"}}); err == nil {
		t.Fatal("replication region without a replica accepted")
	}

	s3 := New(Options{Seed: 1})
	s3.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s3.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.SetGeography([]cluster.Region{{Name: "east", Machines: []string{"m0"}}}); err == nil {
		t.Fatal("SetGeography after Deploy accepted")
	}
}

// TestClientRegionMustBeDeclared: under a geography, a client homed in an
// undeclared region fails Run, naming it and the declared ones, instead of
// paying the default WAN delay on every entry hop while picking replicas
// region-blind.
func TestClientRegionMustBeDeclared(t *testing.T) {
	s := twoRegionSim(t, 10*des.Millisecond)
	cfg := s.Client()
	cfg.Region = "esat"
	s.SetClient(cfg)
	_, err := s.Run(0, 10*des.Millisecond)
	if err == nil || !strings.Contains(err.Error(), `"esat"`) ||
		!strings.Contains(err.Error(), `["east" "west"]`) {
		t.Fatalf("Run with an undeclared client region: %v", err)
	}
}

// TestRegionCrashCascadesAndHealsIndependently: crash_domain on a region
// cascades to every machine in its racks, and an overlapping rack-level
// crash holds its machine down after the region heals — the overlapping
// partition-cut counting, one level up in the hierarchy.
func TestRegionCrashCascadesAndHealsIndependently(t *testing.T) {
	s := New(Options{Seed: 3})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 4, cluster.FreqSpec{})
	if err := s.SetDomains([]netfault.Domain{{Name: "rack1", Machines: []string{"m1"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetGeography([]cluster.Region{
		{Name: "west", Machines: []string{"m0", "m1"}},
	}); err != nil {
		t.Fatal(err)
	}
	bp := service.SingleStage("svc", dist.NewDeterministic(1000))
	if _, err := s.Deploy(bp, RoundRobin,
		Placement{Machine: "m0", Cores: 1}, Placement{Machine: "m1", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	dep, _ := s.Deployment("svc")
	ms := des.Millisecond
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 10 * ms, Kind: fault.CrashDomain, Domain: "west"},   // region down
		{At: 20 * ms, Kind: fault.CrashDomain, Domain: "rack1"},  // overlapping rack cut
		{At: 30 * ms, Kind: fault.RecoverDomain, Domain: "west"}, // region heals...
		{At: 40 * ms, Kind: fault.RecoverDomain, Domain: "rack1"},
	}}); err != nil {
		t.Fatal(err)
	}
	type probe struct {
		at           des.Time
		regionUp     float64
		rackUp       float64
		m0Up, m1Up   bool
		wantHealthyN int
	}
	probes := []probe{
		{at: 15 * ms, regionUp: 0, rackUp: 0, m0Up: false, m1Up: false, wantHealthyN: 0},
		{at: 25 * ms, regionUp: 0, rackUp: 0, m0Up: false, m1Up: false, wantHealthyN: 0},
		// Region healed, but the rack cut still holds m1 down.
		{at: 35 * ms, regionUp: 0.5, rackUp: 0, m0Up: true, m1Up: false, wantHealthyN: 1},
		{at: 45 * ms, regionUp: 1, rackUp: 1, m0Up: true, m1Up: true, wantHealthyN: 2},
	}
	for _, p := range probes {
		p := p
		s.Engine().At(p.at, func(now des.Time) {
			if got := s.DomainUp("west"); got != p.regionUp {
				t.Errorf("t=%v: DomainUp(west) = %v, want %v", now, got, p.regionUp)
			}
			if got := s.DomainUp("rack1"); got != p.rackUp {
				t.Errorf("t=%v: DomainUp(rack1) = %v, want %v", now, got, p.rackUp)
			}
			if up := !dep.Instances[0].Down(); up != p.m0Up {
				t.Errorf("t=%v: svc-0 up = %v, want %v", now, up, p.m0Up)
			}
			if up := !dep.Instances[1].Down(); up != p.m1Up {
				t.Errorf("t=%v: svc-1 up = %v, want %v", now, up, p.m1Up)
			}
			if got := len(dep.Healthy()); got != p.wantHealthyN {
				t.Errorf("t=%v: healthy = %d, want %d", now, got, p.wantHealthyN)
			}
		})
	}
	for s.Engine().Step() {
	}
}

// TestAddReplicaInheritsAndJoinsRegion adds a replica mid-run to a
// deployment with load shedding, a CoDel discipline, a client budget
// (overload control on) and a geography. The replica admits like its
// sibling, vets jobs at dequeue, and joins its region's healthy set, so the
// east-homed client's nearest-region pick moves to it from the west.
func TestAddReplicaInheritsAndJoinsRegion(t *testing.T) {
	s := New(Options{Seed: 11})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 4, cluster.FreqSpec{})
	geo, err := s.SetGeography([]cluster.Region{
		{Name: "east", Machines: []string{"m0"}},
		{Name: "west", Machines: []string{"m1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := geo.SetDefaultWAN(cluster.WANLink{Latency: 5 * des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	bp := service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond)))
	dep, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m1", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	codel := fault.QueueDiscipline{Kind: fault.QueueCoDel, Target: 2 * des.Millisecond, Interval: 20 * des.Millisecond}
	if err := s.SetMaxQueue("svc", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQueueDiscipline("svc", codel); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("t", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{
		Pattern: workload.ConstantRate(500),
		Region:  "east",
		Budget:  dist.NewDeterministic(float64(50 * des.Millisecond)),
	})

	var added *service.Instance
	s.Engine().Post(100*des.Millisecond, func(des.Time) {
		if dep.RegionHealthy("east") != 0 {
			t.Error("east hosts a replica before AddReplica")
		}
		if added, err = s.AddReplica("svc", "m0", 2); err != nil {
			t.Error(err)
			return
		}
		if added.MaxQueue != 7 || added.Discipline() != codel {
			t.Errorf("replica admits with max queue %d, discipline %+v; want 7, %+v", added.MaxQueue, added.Discipline(), codel)
		}
		if added.IsCanceled == nil {
			t.Error("replica does not vet jobs at dequeue under overload control")
		}
		if dep.RegionHealthy("east") != 1 {
			t.Errorf("east healthy set has %d instances after AddReplica; want 1", dep.RegionHealthy("east"))
		}
		if in := s.pickRegional(dep, geo.RegionIndex("east")); in != added {
			t.Errorf("nearest-region pick from east is %v; want the new replica", in)
		}
	})
	rep, err := s.Run(0, 300*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if added == nil {
		t.Fatal("no replica was added")
	}
	if added.Completed() == 0 {
		t.Fatal("the east replica served nothing after it joined")
	}
	if rep.CrossRegionCalls == 0 {
		t.Fatal("no cross-region call before the replica joined")
	}
	for s.Engine().Step() {
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}
