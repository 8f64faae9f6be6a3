package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// buildSingle builds a one-service simulation: "svc" with the given
// per-job sampler, one instance with cores cores.
func buildSingle(t *testing.T, cost dist.Sampler, cores int, qps float64) *Sim {
	t.Helper()
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", cost), RoundRobin,
		Placement{Machine: "m0", Cores: cores}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(qps)})
	return s
}

func TestRunRequiresSetup(t *testing.T) {
	s := New(Options{Seed: 1})
	if _, err := s.Run(0, des.Second); err == nil {
		t.Fatal("run without topology should fail")
	}
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(10)), RoundRobin,
		Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, des.Second); err == nil {
		t.Fatal("run without client should fail")
	}
}

// TestRunRejectsBadWindows: a negative warmup, a negative duration and a
// run that would end past des.MaxTime fail before anything is scheduled,
// and the Sim can still run a good window afterwards.
func TestRunRejectsBadWindows(t *testing.T) {
	s := buildSingle(t, dist.NewExponential(float64(50*des.Microsecond)), 1, 1000)
	for _, w := range [][2]des.Time{
		{-des.Millisecond, des.Second},
		{0, -des.Second},
		{des.MaxTime - des.Second, 2 * des.Second},
		{des.Second, des.MaxTime},
	} {
		if rep, err := s.Run(w[0], w[1]); err == nil || !strings.Contains(err.Error(), "run window") || rep != nil {
			t.Fatalf("Run(%v, %v) returned %v, %v; want a run window error", w[0], w[1], rep, err)
		}
	}
	if _, err := s.Run(0, 10*des.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnce: a Sim runs once. A second Run returns an error instead of
// scheduling into the finished run's past.
func TestRunOnce(t *testing.T) {
	s := buildSingle(t, dist.NewExponential(float64(50*des.Microsecond)), 1, 1000)
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err == nil || !strings.Contains(err.Error(), "Run called twice") || rep != nil {
		t.Fatalf("second Run returned %v, %v; want an error naming the second call", rep, err)
	}
}

func TestDeployErrors(t *testing.T) {
	s := New(Options{Seed: 1})
	s.AddMachine("m0", 2, cluster.FreqSpec{})
	bp := service.SingleStage("svc", dist.NewDeterministic(10))
	if _, err := s.Deploy(bp, RoundRobin); err == nil {
		t.Fatal("no placements should fail")
	}
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "ghost", Cores: 1}); err == nil {
		t.Fatal("unknown machine should fail")
	}
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err == nil {
		t.Fatal("duplicate deployment should fail")
	}
}

func TestTopologyRequiresDeployedServices(t *testing.T) {
	s := New(Options{Seed: 1})
	s.AddMachine("m0", 2, cluster.FreqSpec{})
	if err := s.SetTopology(graph.Linear("main", "ghost")); err == nil {
		t.Fatal("undeployed service should fail")
	}
}

func TestTopologyPathResolution(t *testing.T) {
	s := New(Options{Seed: 1})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	bp := &service.Blueprint{
		Name: "svc",
		Stages: []service.StageSpec{
			{Name: "a", PerJob: dist.NewDeterministic(100)},
			{Name: "b", PerJob: dist.NewDeterministic(10000)},
		},
		Paths: []service.PathSpec{
			{Name: "read", Stages: []int{0}},
			{Name: "write", Stages: []int{0, 1}},
		},
	}
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	topo := graph.Linear("main", "svc")
	topo.Trees[0].Nodes[0].ServicePath = "write"
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if got := s.nodes[0][0].pathID; got != 1 {
		t.Fatalf("resolved path %d, want 1", got)
	}
	// Unknown path name.
	s2 := New(Options{Seed: 1})
	s2.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s2.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	topo2 := graph.Linear("main", "svc")
	topo2.Trees[0].Nodes[0].ServicePath = "nope"
	if err := s2.SetTopology(topo2); err == nil {
		t.Fatal("unknown path should fail")
	}
}

func TestLowLoadLatencyEqualsServiceTime(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 100)
	s.clientCfg.Proc = workload.Uniform
	rep, err := s.Run(100*des.Millisecond, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
	// 100 QPS against a 100µs server: no queueing, latency == 100µs.
	if rep.Latency.Mean() != 100*des.Microsecond {
		t.Fatalf("mean latency %v, want exactly 100µs", rep.Latency.Mean())
	}
	if math.Abs(rep.GoodputQPS-rep.OfferedQPS) > 5 {
		t.Fatalf("goodput %v vs offered %v", rep.GoodputQPS, rep.OfferedQPS)
	}
	if rep.InFlight > 1 {
		t.Fatalf("in flight at horizon = %d", rep.InFlight)
	}
}

// M/M/1 sanity: mean sojourn time = 1/(µ−λ). This is the core validation
// that the simulator reproduces queueing theory where theory is exact.
func TestMM1MeanSojourn(t *testing.T) {
	meanSvc := 100 * des.Microsecond // µ = 10k/s
	lambda := 7000.0                 // ρ = 0.7
	s := buildSingle(t, dist.NewExponential(float64(meanSvc)), 1, lambda)
	rep, err := s.Run(2*des.Second, 20*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	mu := 1.0 / meanSvc.Seconds()
	want := 1.0 / (mu - lambda) // seconds
	got := rep.Latency.Mean().Seconds()
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("M/M/1 mean sojourn %v s, want ≈%v s", got, want)
	}
	// p99 of exponential sojourn: ln(100)·mean.
	wantP99 := want * math.Log(100)
	gotP99 := rep.Latency.P99().Seconds()
	if math.Abs(gotP99-wantP99)/wantP99 > 0.12 {
		t.Fatalf("M/M/1 p99 %v s, want ≈%v s", gotP99, wantP99)
	}
}

func TestSaturationBacklogGrows(t *testing.T) {
	// Offered 2× capacity: goodput pins at capacity, backlog grows.
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 20000)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.GoodputQPS-10000) > 300 {
		t.Fatalf("goodput %v, want ≈10000 (capacity)", rep.GoodputQPS)
	}
	if rep.InFlight < 5000 {
		t.Fatalf("in flight %d, want large backlog", rep.InFlight)
	}
}

func TestChainLatencyAdds(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	for _, svc := range []struct {
		name string
		cost float64
	}{{"front", float64(100 * des.Microsecond)}, {"back", float64(250 * des.Microsecond)}} {
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewDeterministic(svc.cost)),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTopology(graph.Linear("main", "front", "back")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.Mean() != 350*des.Microsecond {
		t.Fatalf("chain latency %v, want 350µs", rep.Latency.Mean())
	}
	if rep.PerTier["front"].Mean() != 100*des.Microsecond {
		t.Fatalf("front tier %v", rep.PerTier["front"].Mean())
	}
	if rep.PerTier["back"].Mean() != 250*des.Microsecond {
		t.Fatalf("back tier %v", rep.PerTier["back"].Mean())
	}
}

func TestFanoutFanInLatencyIsMax(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	mustDeploy := func(name string, cost float64, cores int) {
		t.Helper()
		if _, err := s.Deploy(service.SingleStage(name, dist.NewDeterministic(cost)),
			RoundRobin, Placement{Machine: "m0", Cores: cores}); err != nil {
			t.Fatal(err)
		}
	}
	mustDeploy("proxy", float64(50*des.Microsecond), 1)
	mustDeploy("fast", float64(100*des.Microsecond), 1)
	mustDeploy("slow", float64(400*des.Microsecond), 1)
	topo := &graph.Topology{Trees: []graph.Tree{{
		Name: "fan", Weight: 1, Root: 0,
		Nodes: []graph.Node{
			{ID: 0, Service: "proxy", Instance: -1, Children: []int{1, 2}},
			{ID: 1, Service: "fast", Instance: -1, Children: []int{3}},
			{ID: 2, Service: "slow", Instance: -1, Children: []int{3}},
			{ID: 3, Service: "proxy", Instance: -1},
		},
	}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 50 (proxy) + max(100, 400) + 50 (join proxy) = 500µs.
	if rep.Latency.Mean() != 500*des.Microsecond {
		t.Fatalf("fanout latency %v, want 500µs", rep.Latency.Mean())
	}
}

func TestConnectionPoolBlocks(t *testing.T) {
	// Pool capacity 1 (one http/1.1 connection): two requests arriving
	// together serialize end to end.
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		RoundRobin, Placement{Machine: "m0", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{
		Trees: []graph.Tree{{
			Name: "main", Weight: 1, Root: 0,
			Nodes: []graph.Node{{
				ID: 0, Service: "svc", Instance: -1,
				AcquireConn: []string{"cli"},
				ReleaseConn: []string{"cli"},
			}},
		}},
		Pools: []graph.ConnPool{{Name: "cli", Capacity: 1}},
	}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	// Two requests in the first microsecond: with 4 cores they would
	// complete together at ~1ms; with 1 connection the second finishes
	// at ~2ms.
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(2_000_000)})
	// The run's report covers 2µs; the latencies come after it.
	var latency []des.Time
	s.OnRequestDone = func(_ des.Time, req *job.Request) { latency = append(latency, req.Latency()) }
	if _, err := s.Run(0, 2*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Drain the requests still in flight; the client stopped with the run.
	s.Engine().RunUntil(10 * des.Millisecond)
	if len(latency) < 2 {
		t.Fatalf("completions = %d", len(latency))
	}
	if m := slices.Max(latency); m < 1900*des.Microsecond {
		t.Fatalf("second request should wait for the connection; max latency %v", m)
	}
}

// TestReportFrozenAfterRun: the report covers [warmup, horizon]. Requests
// still in flight at the horizon complete in a later drain, and must not
// land in the histograms or error counts the caller already holds.
func TestReportFrozenAfterRun(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	s.AddMachine("m1", 16, cluster.FreqSpec{})
	for _, svc := range []struct {
		name, machine string
		cost          des.Time
	}{{"front", "m0", 100 * des.Microsecond}, {"back", "m1", 25 * des.Millisecond}} {
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewDeterministic(float64(svc.cost))),
			RoundRobin, Placement{Machine: svc.machine, Cores: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EnableNetwork(NetworkConfig{CoresPerMachine: 1, PerMsg: dist.NewDeterministic(1000)}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "front", "back")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	const horizon = des.Second
	rep, err := s.Run(100*des.Millisecond, horizon-100*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() []uint64 {
		out := []uint64{rep.Latency.Count()}
		for _, tier := range []string{"front", "back", "netproc"} {
			if rep.PerTier[tier] == nil {
				t.Fatalf("tier %s missing from %v", tier, rep.PerTier)
			}
			out = append(out, rep.PerTier[tier].Count())
		}
		return out
	}
	before := counts()
	late := 0
	s.OnRequestDone = func(des.Time, *job.Request) { late++ }
	s.Engine().RunUntil(horizon + des.Second)
	if late == 0 {
		t.Fatal("no request was in flight at the horizon; the drain proves nothing")
	}
	if after := counts(); !slices.Equal(before, after) {
		t.Fatalf("drain after Run moved the report's counts %v to %v", before, after)
	}
}

func TestNetworkAddsHops(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableNetwork(NetworkConfig{
		CoresPerMachine: 1,
		PerMsg:          dist.NewDeterministic(float64(10 * des.Microsecond)),
		ClientTx:        true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// rx pass (10µs) + service (100µs) + tx pass (10µs) = 120µs.
	if rep.Latency.Mean() != 120*des.Microsecond {
		t.Fatalf("latency with network %v, want 120µs", rep.Latency.Mean())
	}
	if rep.PerTier["netproc"] == nil {
		t.Fatal("netproc tier missing")
	}
}

func TestNetworkSameMachineHopSkipsNIC(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	s.AddMachine("m1", 16, cluster.FreqSpec{})
	dep := func(name, mach string) {
		t.Helper()
		if _, err := s.Deploy(service.SingleStage(name, dist.NewDeterministic(float64(100*des.Microsecond))),
			RoundRobin, Placement{Machine: mach, Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dep("a", "m0")
	dep("b", "m0") // same machine as a: no NIC pass between them
	if err := s.EnableNetwork(NetworkConfig{
		CoresPerMachine: 1,
		PerMsg:          dist.NewDeterministic(float64(10 * des.Microsecond)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "a", "b")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// client→a pays 10µs rx; a→b is loopback; no ClientTx. 210µs total.
	if rep.Latency.Mean() != 210*des.Microsecond {
		t.Fatalf("latency %v, want 210µs", rep.Latency.Mean())
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		RoundRobin,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(3000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	var counts []uint64
	for _, ir := range rep.Instances {
		if ir.Service == "svc" {
			counts = append(counts, ir.Completed)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("instances = %d", len(counts))
	}
	for _, c := range counts {
		if math.Abs(float64(c)-float64(rep.Completions)/3) > float64(rep.Completions)/20 {
			t.Fatalf("round robin imbalance: %v of %d", counts, rep.Completions)
		}
	}
}

func TestPinnedInstance(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		RoundRobin,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	topo := graph.Linear("main", "svc")
	topo.Trees[0].Nodes[0].Instance = 1
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(1000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances[0].Completed != 0 {
		t.Fatal("instance 0 should be idle when node pins instance 1")
	}
	if rep.Instances[1].Completed == 0 {
		t.Fatal("instance 1 should serve everything")
	}
}

func TestProbabilisticTreesSplitTraffic(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	dep := func(name string) {
		t.Helper()
		if _, err := s.Deploy(service.SingleStage(name, dist.NewDeterministic(float64(10*des.Microsecond))),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dep("front")
	dep("cache")
	dep("db")
	hit := graph.Tree{Name: "hit", Weight: 0.8, Root: 0, Nodes: []graph.Node{
		{ID: 0, Service: "front", Instance: -1, Children: []int{1}},
		{ID: 1, Service: "cache", Instance: -1},
	}}
	miss := graph.Tree{Name: "miss", Weight: 0.2, Root: 0, Nodes: []graph.Node{
		{ID: 0, Service: "front", Instance: -1, Children: []int{1}},
		{ID: 1, Service: "cache", Instance: -1, Children: []int{2}},
		{ID: 2, Service: "db", Instance: -1},
	}}
	if err := s.SetTopology(&graph.Topology{Trees: []graph.Tree{hit, miss}}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(10000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	dbShare := float64(rep.PerTier["db"].Count()) / float64(rep.Completions)
	if math.Abs(dbShare-0.2) > 0.02 {
		t.Fatalf("db share %v, want ≈0.2", dbShare)
	}
}

func TestClosedLoopClient(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		RoundRobin, Placement{Machine: "m0", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{ClosedUsers: 2})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 2 users, 1ms service, no think: ≈2000 completions.
	if math.Abs(rep.GoodputQPS-2000) > 50 {
		t.Fatalf("closed-loop goodput %v, want ≈2000", rep.GoodputQPS)
	}
	if rep.InFlight > 2 {
		t.Fatalf("closed loop in flight %d", rep.InFlight)
	}
}

func TestWarmupExcluded(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 1000)
	rep, err := s.Run(500*des.Millisecond, 500*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Only the second half measured: ≈500 completions, not ≈1000.
	if rep.Completions < 400 || rep.Completions > 600 {
		t.Fatalf("measured completions = %d, want ≈500", rep.Completions)
	}
	if math.Abs(rep.GoodputQPS-1000) > 100 {
		t.Fatalf("goodput %v", rep.GoodputQPS)
	}
}

func TestOnRequestDoneObserver(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 1000)
	count := 0
	var lastLatency des.Time
	s.OnRequestDone = func(now des.Time, req *job.Request) {
		count++
		lastLatency = req.Latency()
	}
	rep, err := s.Run(0, 100*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || uint64(count) != rep.Completions {
		t.Fatalf("observer saw %d, completions %d", count, rep.Completions)
	}
	if lastLatency != 100*des.Microsecond {
		t.Fatalf("observed latency %v", lastLatency)
	}
}

// TestRecordSizes pins the per-job and per-request records at or below
// their sizes once names stopped being looked up per job: Job traded its
// machine and instance name strings for one handle to the serving instance
// (168 → 152 bytes on 64-bit). A request is one block: reqState embeds the
// 128-byte job.Request and dropped the fields that copied it, 304 bytes where
// the request and its state were 128 + 200. Every byte added to either is
// paid per job or per request, and jobs are the largest share of the fan-out
// workload's bytes per request.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(job.Job{}); n > 152 {
		t.Errorf("job.Job is %d bytes, pinned at 152", n)
	}
	if n := unsafe.Sizeof(reqState{}); n > 304 {
		t.Errorf("reqState is %d bytes, pinned at 304", n)
	}
}
