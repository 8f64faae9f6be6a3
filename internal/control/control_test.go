package control

import (
	"fmt"
	"math/rand"
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

// singleService builds a one-node topology: one service with the given
// placements, deterministic service time, and an open-loop client.
func singleService(t *testing.T, seed uint64, lb sim.Policy, svcUs float64,
	rate float64, freq cluster.FreqSpec, placements ...sim.Placement) *sim.Sim {
	t.Helper()
	s := sim.New(sim.Options{Seed: seed})
	machines := map[string]bool{}
	for _, p := range placements {
		if !machines[p.Machine] {
			machines[p.Machine] = true
			s.AddMachine(p.Machine, 8, freq)
		}
	}
	if _, err := s.Deploy(service.SingleStage("s", dist.NewDeterministic(svcUs*1000)), lb, placements...); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{Trees: []graph.Tree{{
		Name: "t", Weight: 1, Root: 0,
		Nodes: []graph.Node{{ID: 0, Service: "s", Instance: -1}},
	}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(rate)})
	return s
}

func leaked(rep *sim.Report) uint64 {
	return rep.Arrivals - (rep.Completions + rep.Timeouts + rep.Shed +
		rep.Dropped + rep.DeadlineExpired + uint64(rep.InFlight))
}

// TestDetectionAndFailover: a killed instance is declared dead with
// bounded lag and replaced on a machine with free cores, restoring the
// healthy replica count; the dead instance's cores are reclaimed.
func TestDetectionAndFailover(t *testing.T) {
	s := singleService(t, 7, sim.RoundRobin, 200, 2000, cluster.FreqSpec{},
		sim.Placement{Machine: "m0", Cores: 2},
		sim.Placement{Machine: "m1", Cores: 2})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 200 * des.Millisecond, Kind: fault.KillInstance, Service: "s", Instance: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		Failover: &FailoverConfig{RestartDelay: 50 * des.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	if st.Detections != 1 || st.Failovers != 1 || st.Recoveries != 0 {
		t.Fatalf("want 1 detection + 1 failover, got %s", st.Fingerprint())
	}
	if lag := st.DetectionLagTotal / des.Time(st.Detections); lag <= 0 || lag > 100*des.Millisecond {
		t.Fatalf("detection lag %v outside (0, 100ms]", lag)
	}
	dep, _ := s.Deployment("s")
	if n := len(dep.Healthy()); n != 2 {
		t.Fatalf("healthy replicas after failover = %d, want 2", n)
	}
	if n := dep.ReplicaCount(); n != 2 {
		t.Fatalf("replica count after failover = %d, want 2", n)
	}
	// The dead instance's allocation was released.
	m0, _ := s.Cluster().Machine("m0")
	if m0.FreeCores() != 8 {
		t.Fatalf("m0 free cores = %d, want 8 after reclaim", m0.FreeCores())
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

// TestRecoveryWithdrawsDeclaration: an instance that comes back (fault-plan
// restart) after being declared dead but before its replacement goes up is
// kept — the declaration is withdrawn and no failover happens.
func TestRecoveryWithdrawsDeclaration(t *testing.T) {
	s := singleService(t, 11, sim.RoundRobin, 200, 2000, cluster.FreqSpec{},
		sim.Placement{Machine: "m0", Cores: 2},
		sim.Placement{Machine: "m1", Cores: 2})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 200 * des.Millisecond, Kind: fault.KillInstance, Service: "s", Instance: 0},
		{At: 260 * des.Millisecond, Kind: fault.RestartInstance, Service: "s", Instance: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		Failover: &FailoverConfig{RestartDelay: 150 * des.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	if st.Detections != 1 || st.Recoveries != 1 || st.Failovers != 0 {
		t.Fatalf("want detection withdrawn by recovery, got %s", st.Fingerprint())
	}
	dep, _ := s.Deployment("s")
	if n := len(dep.Healthy()); n != 2 {
		t.Fatalf("healthy replicas after recovery = %d, want 2", n)
	}
	plane.Stop()
	for s.Engine().Step() {
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
}

// grayFailureRun runs the gray-failure scenario — two replicas, one on a
// DVFS-degraded machine — and reports the degraded replica's share of
// completions plus the end-to-end p99.
func grayFailureRun(t *testing.T, eject bool) (share float64, p99 des.Time, ejections uint64) {
	t.Helper()
	s := singleService(t, 23, sim.RoundRobin, 200, 2000, cluster.DefaultFreqSpec,
		sim.Placement{Machine: "m0", Cores: 1},
		sim.Placement{Machine: "m1", Cores: 1})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1200},
	}}); err != nil {
		t.Fatal(err)
	}
	var plane *Plane
	if eject {
		var err error
		plane, err = Attach(s, Config{
			Ejection: &EjectionConfig{Interval: 50 * des.Millisecond, Probation: 300 * des.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.OnCallResult = plane.ObserveCall
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l := leaked(rep); l != 0 {
		t.Fatalf("leaked %d requests", l)
	}
	var total, degraded uint64
	for _, ir := range rep.Instances {
		total += ir.Completed
		if ir.Name == "s-1" {
			degraded = ir.Completed
		}
	}
	if total == 0 {
		t.Fatal("no completions")
	}
	if plane != nil {
		ejections = plane.Stats().Ejections
		plane.Stop()
	}
	for s.Engine().Step() {
	}
	if err := s.VerifyDrained(); err != nil {
		t.Fatal(err)
	}
	return float64(degraded) / float64(total), rep.Latency.P99(), ejections
}

// TestGrayFailureRegression pins the failure mode the ejector exists for:
// without control, a round-robin balancer keeps sending a full traffic
// share to a frequency-degraded (up but slow) instance; with outlier
// ejection the degraded instance loses most of its share and the
// end-to-end p99 drops.
func TestGrayFailureRegression(t *testing.T) {
	baseShare, baseP99, _ := grayFailureRun(t, false)
	if baseShare < 0.4 || baseShare > 0.6 {
		t.Fatalf("without control, degraded share = %.2f, want ~0.5 (the regression pin)", baseShare)
	}
	ejShare, ejP99, ejections := grayFailureRun(t, true)
	if ejections == 0 {
		t.Fatal("ejector never fired on a gray-failed instance")
	}
	if ejShare >= 0.35 {
		t.Fatalf("with ejection, degraded share = %.2f, want < 0.35 (baseline %.2f)", ejShare, baseShare)
	}
	if ejP99 >= baseP99 {
		t.Fatalf("ejection did not improve p99: %v (ejected) vs %v (baseline)", ejP99, baseP99)
	}
}

// TestEjectionBoundedByMinHealthy: when every replica looks bad at once,
// eviction stops at the min-healthy floor, and probation brings the
// ejected replicas back with a clean slate.
func TestEjectionBoundedByMinHealthy(t *testing.T) {
	s := sim.New(sim.Options{Seed: 3})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("s", dist.NewDeterministic(1000)), sim.RoundRobin,
		sim.Placement{Machine: "m0", Cores: 1},
		sim.Placement{Machine: "m0", Cores: 1},
		sim.Placement{Machine: "m0", Cores: 1},
		sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{Ejection: &EjectionConfig{
		Interval:  10 * des.Millisecond,
		Probation: 50 * des.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Every replica reports a 100% windowed failure rate.
	dep, _ := s.Deployment("s")
	for _, in := range dep.Instances {
		for k := 0; k < 25; k++ {
			plane.ObserveCall(0, in, false, 0)
		}
	}
	s.Engine().RunUntil(15 * des.Millisecond)
	if got := plane.Stats().Ejections; got != 2 {
		t.Fatalf("ejections = %d, want 2 (min-healthy floor of 4 replicas)", got)
	}
	if n := len(dep.Healthy()); n != 2 {
		t.Fatalf("healthy after bounded eviction = %d, want 2", n)
	}
	// Probation ends: both come back with clean windows and stay back.
	s.Engine().RunUntil(90 * des.Millisecond)
	if got := plane.Stats().Reinstatements; got != 2 {
		t.Fatalf("reinstatements = %d, want 2", got)
	}
	if n := len(dep.Healthy()); n != 4 {
		t.Fatalf("healthy after probation = %d, want 4", n)
	}
	plane.Stop()
}

// stepRate is a one-step load pattern: High until the step time, Low after.
type stepRate struct {
	high, low float64
	at        des.Time
}

func (p stepRate) RateAt(t des.Time) float64 {
	if t < p.at {
		return p.high
	}
	return p.low
}

// TestAutoscaleFollowsLoad: a load step up pushes windowed utilization over
// target and adds replicas; the step back down drains them away, bounded
// by Min, with cooldowns spacing the actions.
func TestAutoscaleFollowsLoad(t *testing.T) {
	s := sim.New(sim.Options{Seed: 5})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("s", dist.NewDeterministic(400*1000)), sim.RoundRobin,
		sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{Trees: []graph.Tree{{
		Name: "t", Weight: 1, Root: 0,
		Nodes: []graph.Node{{ID: 0, Service: "s", Instance: -1}},
	}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: stepRate{high: 2500, low: 200, at: des.Second}})
	plane, err := Attach(s, Config{Autoscale: []AutoscaleConfig{{
		Service: "s", Min: 1, Max: 4,
		TargetUtilization: 0.5,
		Interval:          50 * des.Millisecond,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	if st.ScaleUps == 0 {
		t.Fatalf("no scale-ups under 2.5x overload: %s", st.Fingerprint())
	}
	if st.ScaleDowns == 0 {
		t.Fatalf("no scale-downs after the load dropped: %s", st.Fingerprint())
	}
	dep, _ := s.Deployment("s")
	if n := dep.ReplicaCount(); n != 1 {
		t.Fatalf("replicas at end of quiet phase = %d, want Min=1", n)
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

// TestAttachValidation: configuration mistakes fail eagerly.
func TestAttachValidation(t *testing.T) {
	build := func() *sim.Sim {
		s := sim.New(sim.Options{Seed: 1})
		s.AddMachine("m0", 8, cluster.FreqSpec{})
		if _, err := s.Deploy(service.SingleStage("s", dist.NewDeterministic(1000)), sim.RoundRobin,
			sim.Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"failover without detector", Config{Failover: &FailoverConfig{}}},
		{"unknown service", Config{Services: []string{"nope"}, Detector: &DetectorConfig{}}},
		{"unknown failover machine", Config{Detector: &DetectorConfig{},
			Failover: &FailoverConfig{Machines: []string{"mX"}}}},
		{"bad quantile", Config{Ejection: &EjectionConfig{Quantile: 1.5}}},
		{"autoscale both targets", Config{Autoscale: []AutoscaleConfig{{
			Service: "s", Max: 2, TargetUtilization: 0.5, TargetQueue: 4}}}},
		{"autoscale no target", Config{Autoscale: []AutoscaleConfig{{Service: "s", Max: 2}}}},
		{"autoscale max below min", Config{Autoscale: []AutoscaleConfig{{
			Service: "s", Min: 3, Max: 2, TargetUtilization: 0.5}}}},
		{"autoscale unknown machine", Config{Autoscale: []AutoscaleConfig{{
			Service: "s", Max: 2, TargetUtilization: 0.5, Machines: []string{"mX"}}}}},
		{"duplicate autoscale", Config{Autoscale: []AutoscaleConfig{
			{Service: "s", Max: 2, TargetUtilization: 0.5},
			{Service: "s", Max: 2, TargetUtilization: 0.5}}}},
	}
	for _, tc := range cases {
		if _, err := Attach(build(), tc.cfg); err == nil {
			t.Errorf("%s: Attach accepted a bad config", tc.name)
		}
	}
}

// buildControlledScenario assembles a random fan-out topology with faults
// and a full control plane (detector, ejection, failover, autoscale) on
// top — the integration surface for the conservation and determinism
// sweeps below.
func buildControlledScenario(t *testing.T, seed int64) (*sim.Sim, *Plane) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := sim.New(sim.Options{Seed: uint64(seed)})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	s.AddMachine("m1", 16, cluster.FreqSpec{})
	mach := func() string { return fmt.Sprintf("m%d", r.Intn(2)) }

	deploy := func(name string, meanUs float64) {
		t.Helper()
		var sampler dist.Sampler
		if r.Intn(2) == 0 {
			sampler = dist.NewDeterministic(meanUs * 1000)
		} else {
			sampler = dist.NewExponential(meanUs * 1000)
		}
		n := 1 + r.Intn(3)
		placements := make([]sim.Placement, n)
		for i := range placements {
			placements[i] = sim.Placement{Machine: mach(), Cores: 1}
		}
		if _, err := s.Deploy(service.SingleStage(name, sampler), sim.Policy(r.Intn(3)), placements...); err != nil {
			t.Fatal(err)
		}
	}
	deploy("root", 20)
	mids := 1 + r.Intn(2)
	for i := 0; i < mids; i++ {
		deploy(fmt.Sprintf("mid%d", i), 10+float64(r.Intn(60)))
	}
	deploy("join", 15)

	nodes := []graph.Node{{ID: 0, Service: "root", Instance: -1}}
	joinID := mids + 1
	for i := 0; i < mids; i++ {
		nodes[0].Children = append(nodes[0].Children, i+1)
		nodes = append(nodes, graph.Node{
			ID: i + 1, Service: fmt.Sprintf("mid%d", i), Instance: -1,
			Children: []int{joinID},
		})
	}
	nodes = append(nodes, graph.Node{ID: joinID, Service: "join", Instance: -1})
	topo := &graph.Topology{Trees: []graph.Tree{{Name: "t", Weight: 1, Root: 0, Nodes: nodes}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(float64(300 + r.Intn(1200)))})

	victim := fmt.Sprintf("mid%d", r.Intn(mids))
	events := []fault.Event{
		{At: des.Time(50+r.Intn(100)) * des.Millisecond, Kind: fault.KillInstance, Service: victim, Instance: 0},
	}
	if r.Intn(2) == 0 {
		events = append(events, fault.Event{
			At: events[0].At + 40*des.Millisecond, Kind: fault.RestartInstance, Service: victim, Instance: 0,
		})
	}
	if r.Intn(2) == 0 {
		crash := des.Time(120+r.Intn(80)) * des.Millisecond
		events = append(events,
			fault.Event{At: crash, Kind: fault.CrashMachine, Machine: "m1"},
			fault.Event{At: crash + 30*des.Millisecond, Kind: fault.RecoverMachine, Machine: "m1"})
	}
	if err := s.InstallFaults(fault.Plan{Events: events}); err != nil {
		t.Fatal(err)
	}

	plane, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		Ejection: &EjectionConfig{Interval: 50 * des.Millisecond, Probation: 100 * des.Millisecond},
		Failover: &FailoverConfig{RestartDelay: 30 * des.Millisecond},
		Autoscale: []AutoscaleConfig{{
			Service: "mid0", Min: 1, Max: 3,
			TargetUtilization: 0.6,
			Interval:          50 * des.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.OnCallResult = plane.ObserveCall
	return s, plane
}

// TestControlledTopologiesConserveAndDrain: with the whole control plane
// acting on random faulted topologies — membership churn from failover
// and autoscaling included — request conservation must hold exactly and
// draining the engine after Stop must leak nothing.
func TestControlledTopologiesConserveAndDrain(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s, plane := buildControlledScenario(t, seed)
		rep, err := s.Run(0, 400*des.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completions == 0 {
			t.Fatalf("seed %d: no completions", seed)
		}
		if l := leaked(rep); l != 0 {
			t.Fatalf("seed %d: leaked %d requests", seed, l)
		}
		plane.Stop()
		for s.Engine().Step() {
		}
		if err := s.VerifyDrained(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestControlPlaneDeterministic: the reproducibility guarantee extends
// over the control plane — same seed, same faults, same config yields an
// identical report and identical action counters, replica churn and all.
func TestControlPlaneDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		run := func() string {
			s, plane := buildControlledScenario(t, seed)
			rep, err := s.Run(0, 400*des.Millisecond)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fp := fmt.Sprintf("arr=%d comp=%d to=%d shed=%d drop=%d ddl=%d inflight=%d p50=%v p99=%v | %s",
				rep.Arrivals, rep.Completions, rep.Timeouts, rep.Shed, rep.Dropped,
				rep.DeadlineExpired, rep.InFlight, rep.Latency.P50(), rep.Latency.P99(),
				plane.Stats().Fingerprint())
			for _, ir := range rep.Instances {
				fp += fmt.Sprintf(" %s:%d", ir.Name, ir.Completed)
			}
			plane.Stop()
			return fp
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("seed %d: runs differ\n a: %s\n b: %s", seed, a, b)
		}
	}
}

// TestPartitionFalseSuspicion is the vantage regression: an instance that
// is alive and serving but unreachable from the plane's vantage machine is
// suspected and pulled from rotation, is NOT failed over (it is not down,
// so replacing it would double-place the service), and is reinstated once
// the partition heals and its heartbeats resume.
func TestPartitionFalseSuspicion(t *testing.T) {
	s := singleService(t, 11, sim.RoundRobin, 200, 2000, cluster.FreqSpec{},
		sim.Placement{Machine: "m1", Cores: 2},
		sim.Placement{Machine: "m2", Cores: 2})
	s.AddMachine("m0", 2, cluster.FreqSpec{}) // the plane's vantage
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{{
		At: 300 * des.Millisecond, Kind: fault.PartitionStart, Until: 600 * des.Millisecond,
		GroupA: []string{"m0"}, GroupB: []string{"m1"},
	}}}); err != nil {
		t.Fatal(err)
	}
	plane, err := Attach(s, Config{
		Vantage:  "m0",
		Detector: &DetectorConfig{Period: 10 * des.Millisecond},
		Failover: &FailoverConfig{RestartDelay: 50 * des.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := s.Deployment("s")
	var healthyDuring int
	s.Engine().At(500*des.Millisecond, func(des.Time) { healthyDuring = len(dep.Healthy()) })
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := plane.Stats()
	plane.Stop()
	if st.Detections == 0 {
		t.Fatalf("partition-silenced instance never suspected: %s", st.Fingerprint())
	}
	if st.Failovers != 0 {
		t.Fatalf("live-but-unreachable instance was failed over (double-place): %s", st.Fingerprint())
	}
	if st.Recoveries == 0 {
		t.Fatalf("resumed heartbeats never withdrew the suspicion: %s", st.Fingerprint())
	}
	if healthyDuring != 1 {
		t.Fatalf("healthy replicas during partition = %d, want 1 (suspect ejected)", healthyDuring)
	}
	if n := len(dep.Healthy()); n != 2 {
		t.Fatalf("healthy replicas after heal = %d, want 2 (suspect reinstated)", n)
	}
	if n := dep.ReplicaCount(); n != 2 {
		t.Fatalf("replica count = %d, want 2 (no replacement placed)", n)
	}
	if l := leaked(rep); l != 0 {
		t.Fatalf("leaked %d requests", l)
	}
	// The instance served traffic the whole time: the partition cut only
	// the control plane's view, not the client's data path.
	for _, ir := range rep.Instances {
		if ir.Completed == 0 {
			t.Fatalf("instance %s completed nothing", ir.Name)
		}
	}
}

// TestHeartbeatTicksDoNotAllocate: heartbeats and suspicion checks re-arm
// themselves through callbacks bound once per instance and per plane, so a
// quiet detector allocates nothing however long it ticks. The engine runs
// the plane alone: no client is started.
func TestHeartbeatTicksDoNotAllocate(t *testing.T) {
	s := singleService(t, 7, sim.RoundRobin, 200, 2000, cluster.FreqSpec{},
		sim.Placement{Machine: "m0", Cores: 2},
		sim.Placement{Machine: "m1", Cores: 2})
	if _, err := Attach(s, Config{
		Detector: &DetectorConfig{Period: des.Millisecond, Jitter: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	eng.RunUntil(50 * des.Millisecond) // grow the event freelist
	before := eng.Processed()
	allocs := testing.AllocsPerRun(20, func() { eng.RunUntil(eng.Now() + 20*des.Millisecond) })
	if ticks := eng.Processed() - before; ticks < 21*40 {
		t.Fatalf("only %d detector events fired", ticks)
	}
	if allocs != 0 {
		t.Fatalf("detector ticks allocate %.1f objects per 20 ms, want 0", allocs)
	}
}

// TestSafeZBoundsPhi: below safeZ(T) the suspicion score is under T at
// every z of a 1e-4 grid, so skipping the phi evaluation there never
// misses a declaration; and the bound sits within a few margins of the
// crossing, so the skip covers nearly every healthy check.
func TestSafeZBoundsPhi(t *testing.T) {
	for _, threshold := range []float64{0.5, 1, 3, 8, 16} {
		zs := safeZ(threshold)
		for k := 0; ; k++ {
			z := zs - float64(k)*1e-4
			if z < -40 {
				break
			}
			if phi(z) >= threshold {
				t.Fatalf("threshold %v: phi(%v) = %v below safeZ %v", threshold, z, phi(z), zs)
			}
		}
		if phi(zs+3e-3) < threshold {
			t.Fatalf("threshold %v: safeZ %v is more than 3e-3 below the crossing", threshold, zs)
		}
	}
}

// TestEjectionWindowsDoNotAllocate: a window that ejects nothing reuses
// the deployment's scratch slices and resets each latency estimator in
// place, so evaluating it allocates nothing. The engine runs the plane
// alone; each window is filled with the same healthy observations.
func TestEjectionWindowsDoNotAllocate(t *testing.T) {
	placements := make([]sim.Placement, 4)
	for i := range placements {
		placements[i] = sim.Placement{Machine: "m0", Cores: 1}
	}
	s := singleService(t, 7, sim.RoundRobin, 200, 2000, cluster.FreqSpec{}, placements...)
	const interval = 10 * des.Millisecond
	plane, err := Attach(s, Config{Ejection: &EjectionConfig{Interval: interval}})
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := s.Deployment("s")
	window := func() {
		for _, in := range dep.Instances {
			for k := 0; k < 50; k++ {
				plane.ObserveCall(0, in, true, des.Time(1000+k))
			}
		}
		s.Engine().RunUntil(s.Engine().Now() + interval)
	}
	window() // the first window sizes the scratch slices
	before := s.Engine().Processed()
	allocs := testing.AllocsPerRun(20, window)
	if n := s.Engine().Processed() - before; n != 21 {
		t.Fatalf("%d ejection windows evaluated, want 21", n)
	}
	if plane.Stats().Ejections != 0 {
		t.Fatalf("%d ejections of identical instances", plane.Stats().Ejections)
	}
	if allocs != 0 {
		t.Fatalf("an ejection window allocates %.1f objects, want 0", allocs)
	}
}
