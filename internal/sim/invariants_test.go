package sim

import (
	"math"
	"strings"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// TestDeterminism: identical seeds must produce bit-identical reports —
// the reproducibility guarantee the whole validation relies on.
func TestDeterminism(t *testing.T) {
	run := func() *Report {
		s := buildSingle(t, dist.NewExponential(float64(100*des.Microsecond)), 2, 15000)
		rep, err := s.Run(100*des.Millisecond, des.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Completions != b.Completions {
		t.Fatalf("completions differ: %d vs %d", a.Completions, b.Completions)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.P99() != b.Latency.P99() {
		t.Fatalf("latencies differ: %v/%v vs %v/%v",
			a.Latency.Mean(), a.Latency.P99(), b.Latency.Mean(), b.Latency.P99())
	}
}

// TestSeedSensitivity: different seeds must actually change the sample
// path (guards against accidentally ignoring the seed).
func TestSeedSensitivity(t *testing.T) {
	run := func(seed uint64) uint64 {
		s := New(Options{Seed: seed})
		s.AddMachine("m0", 16, cluster.FreqSpec{})
		if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(100*des.Microsecond))),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
			t.Fatal(err)
		}
		s.SetClient(ClientConfig{Pattern: workload.ConstantRate(5000)})
		rep, err := s.Run(0, des.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Completions
	}
	if run(1) == run(2) {
		t.Fatal("different seeds gave identical completion counts (suspicious)")
	}
}

// TestConservation: arrivals = completions + in-flight, and every
// instance's arrived = completed + queued + in-service.
func TestConservation(t *testing.T) {
	s := buildSingle(t, dist.NewExponential(float64(100*des.Microsecond)), 1, 12000)
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != rep.Completions+uint64(rep.InFlight) {
		t.Fatalf("conservation violated: %d arrivals vs %d completed + %d in flight",
			rep.Arrivals, rep.Completions, rep.InFlight)
	}
}

// TestConservationUnderFaults: with resilience policies, load shedding,
// client timeouts, and a fault plan all active at once, every counted
// arrival lands in exactly one outcome bucket:
//
//	arrivals == completions + timeouts + shed + dropped (+ in-flight)
//
// both at the horizon (with in-flight) and after a full drain (without),
// and with a warmup window that requests straddle in both directions.
func TestConservationUnderFaults(t *testing.T) {
	for _, warmup := range []des.Time{0, 200 * des.Millisecond} {
		s := New(Options{Seed: 17})
		s.AddMachine("m0", 4, cluster.FreqSpec{})
		s.AddMachine("m1", 4, cluster.FreqSpec{})
		if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(des.Millisecond))),
			RoundRobin,
			Placement{Machine: "m0", Cores: 1},
			Placement{Machine: "m1", Cores: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
			t.Fatal(err)
		}
		// 1.25× overload on 2×1000 QPS capacity: queues pin at the shedding
		// bound (excess arrivals shed), requests deep in the queue outlive
		// the client's 60ms patience (timeouts), and a window where both
		// instances are down leaves arrivals nowhere to go but the dropped
		// bucket.
		s.SetClient(ClientConfig{
			Pattern: workload.ConstantRate(2500),
			Timeout: 60 * des.Millisecond,
		})
		if err := s.SetServicePolicy("svc", fault.Policy{
			Timeout: 80 * des.Millisecond, MaxRetries: 1,
			BackoffBase: 5 * des.Millisecond, BackoffJitter: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetMaxQueue("svc", 100); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: 300 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
			{At: 500 * des.Millisecond, Kind: fault.RestartInstance, Service: "svc", Instance: 0},
			{At: 400 * des.Millisecond, Kind: fault.CrashMachine, Machine: "m1"},
			{At: 450 * des.Millisecond, Kind: fault.RecoverMachine, Machine: "m1"},
		}}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(warmup, des.Second)
		if err != nil {
			t.Fatal(err)
		}
		check := func(rep *Report, drained bool) {
			t.Helper()
			total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped + uint64(rep.InFlight)
			if rep.Arrivals != total {
				t.Fatalf("warmup %v drained=%v: arrivals %d != %d (completions %d + timeouts %d + shed %d + dropped %d + in-flight %d)",
					warmup, drained, rep.Arrivals, total,
					rep.Completions, rep.Timeouts, rep.Shed, rep.Dropped, rep.InFlight)
			}
		}
		check(rep, false)
		// Every failure mode must actually have fired, or the invariant
		// checked nothing.
		if rep.Timeouts == 0 || rep.Shed == 0 || rep.Dropped == 0 {
			t.Fatalf("warmup %v: want all buckets exercised, got timeouts %d shed %d dropped %d",
				warmup, rep.Timeouts, rep.Shed, rep.Dropped)
		}
		// Drain: no arrivals after the horizon, so pending retries, backoff
		// timers, and client-timeout guards all resolve.
		for s.Engine().Step() {
		}
		if n := len(s.live); n != 0 {
			t.Fatalf("warmup %v: %d requests stuck after drain", warmup, n)
		}
		drained := s.report(s.Engine().Now())
		if drained.InFlight != 0 {
			t.Fatalf("warmup %v: drained report claims %d in flight", warmup, drained.InFlight)
		}
		check(drained, true)
	}
}

// TestConservationUnderOverload extends the bucket invariant to the
// overload-control machinery: with deadlines, hedged requests, CoDel
// admission, shedding, client timeouts, and outages all active at once,
//
//	arrivals == completions + timeouts + shed + dropped +
//	            deadline-expired (+ in-flight)
//
// at the horizon and after a full drain, with every bucket — including
// the new deadline one — actually exercised, and a hedge never counted
// as an arrival.
func TestConservationUnderOverload(t *testing.T) {
	for _, warmup := range []des.Time{0, 200 * des.Millisecond} {
		s := New(Options{Seed: 17})
		s.AddMachine("m0", 4, cluster.FreqSpec{})
		s.AddMachine("m1", 4, cluster.FreqSpec{})
		if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(des.Millisecond))),
			RoundRobin,
			Placement{Machine: "m0", Cores: 1},
			Placement{Machine: "m1", Cores: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
			t.Fatal(err)
		}
		// 1.25× overload; budgets span the 60ms patience so some requests
		// expire (budget < queueing delay < patience) while others time
		// out first.
		s.SetClient(ClientConfig{
			Pattern: workload.ConstantRate(2500),
			Timeout: 60 * des.Millisecond,
			Budget:  dist.NewUniform(float64(10*des.Millisecond), float64(100*des.Millisecond)),
		})
		if err := s.SetServicePolicy("svc", fault.Policy{
			Timeout: 80 * des.Millisecond, MaxRetries: 1,
			BackoffBase: 5 * des.Millisecond, BackoffJitter: 0.5,
			Hedge: &fault.HedgeSpec{Delay: 10 * des.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetMaxQueue("svc", 100); err != nil {
			t.Fatal(err)
		}
		if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{
			Kind: fault.QueueCoDel, Target: 5 * des.Millisecond, Interval: 50 * des.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
			{At: 300 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
			{At: 500 * des.Millisecond, Kind: fault.RestartInstance, Service: "svc", Instance: 0},
			{At: 400 * des.Millisecond, Kind: fault.CrashMachine, Machine: "m1"},
			{At: 450 * des.Millisecond, Kind: fault.RecoverMachine, Machine: "m1"},
		}}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(warmup, des.Second)
		if err != nil {
			t.Fatal(err)
		}
		check := func(rep *Report, drained bool) {
			t.Helper()
			total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
				rep.DeadlineExpired + uint64(rep.InFlight)
			if rep.Arrivals != total {
				t.Fatalf("warmup %v drained=%v: arrivals %d != %d (completions %d + timeouts %d + shed %d + dropped %d + deadline %d + in-flight %d)",
					warmup, drained, rep.Arrivals, total, rep.Completions,
					rep.Timeouts, rep.Shed, rep.Dropped, rep.DeadlineExpired, rep.InFlight)
			}
		}
		check(rep, false)
		if rep.Timeouts == 0 || rep.Shed == 0 || rep.Dropped == 0 || rep.DeadlineExpired == 0 {
			t.Fatalf("warmup %v: want all buckets exercised, got timeouts %d shed %d dropped %d deadline %d",
				warmup, rep.Timeouts, rep.Shed, rep.Dropped, rep.DeadlineExpired)
		}
		if rep.HedgesIssued == 0 {
			t.Fatalf("warmup %v: hedging never fired", warmup)
		}
		// Hedges are attempts, not arrivals: the client offered at most
		// 2500 QPS × 1s regardless of how many backups were raced.
		if rep.Arrivals > 2600 {
			t.Fatalf("warmup %v: arrivals %d inflated by hedges", warmup, rep.Arrivals)
		}
		// Cancelled and wasted work only ever shrink the served pie;
		// they are instance-side views, never new requests.
		if rep.CanceledWork+rep.WastedWork == 0 {
			t.Fatalf("warmup %v: overload run should cancel or waste some work", warmup)
		}
		for s.Engine().Step() {
		}
		if n := len(s.live); n != 0 {
			t.Fatalf("warmup %v: %d requests stuck after drain", warmup, n)
		}
		drained := s.report(s.Engine().Now())
		if drained.InFlight != 0 {
			t.Fatalf("warmup %v: drained report claims %d in flight", warmup, drained.InFlight)
		}
		check(drained, true)
	}
}

// TestNoLostRequestsAcrossComplexTopology: with fanout, pools, and
// netproc, a drained system must complete every admitted request.
func TestNoLostRequestsAcrossComplexTopology(t *testing.T) {
	s := New(Options{Seed: 5})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	s.AddMachine("m1", 16, cluster.FreqSpec{})
	deploy := func(name, mach string, cores int) {
		t.Helper()
		if _, err := s.Deploy(service.SingleStage(name, dist.NewExponential(float64(50*des.Microsecond))),
			RoundRobin, Placement{Machine: mach, Cores: cores}); err != nil {
			t.Fatal(err)
		}
	}
	deploy("proxy", "m0", 2)
	deploy("a", "m1", 2)
	deploy("b", "m1", 2)
	if err := s.EnableNetwork(NetworkConfig{
		CoresPerMachine: 1,
		PerMsg:          dist.NewDeterministic(float64(5 * des.Microsecond)),
		ClientTx:        true,
	}); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{
		Trees: []graph.Tree{{
			Name: "fan", Weight: 1, Root: 0,
			Nodes: []graph.Node{
				{ID: 0, Service: "proxy", Instance: -1, Children: []int{1, 2},
					AcquireConn: []string{"cli"}},
				{ID: 1, Service: "a", Instance: -1, Children: []int{3}},
				{ID: 2, Service: "b", Instance: -1, Children: []int{3}},
				{ID: 3, Service: "proxy", Instance: -1, ReleaseConn: []string{"cli"}},
			},
		}},
		Pools: []graph.ConnPool{{Name: "cli", Capacity: 32}},
	}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(4000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Let in-flight requests drain: no arrivals after horizon, so the
	// remaining events complete everything.
	for s.Engine().Step() {
	}
	if len(s.live) != 0 {
		t.Fatalf("%d requests stuck after drain", len(s.live))
	}
	if s.pendingN != 0 {
		t.Fatalf("%d jobs stuck in netproc", s.pendingN)
	}
	for _, p := range s.pools {
		if p.inUse() != 0 {
			t.Fatalf("pool %s leaked %d tokens", p.spec.Name, p.inUse())
		}
		if p.waiters.len() != 0 {
			t.Fatalf("pool %s has %d stranded waiters", p.spec.Name, p.waiters.len())
		}
	}
	_ = rep
}

// TestPathProbsSampledAtDispatch: a service-internal execution-path state
// machine (the paper's MongoDB example) splits traffic by the configured
// probabilities.
func TestPathProbsSampledAtDispatch(t *testing.T) {
	s := New(Options{Seed: 6})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	bp := &service.Blueprint{
		Name: "store",
		Stages: []service.StageSpec{
			{Name: "fast", PerJob: dist.NewDeterministic(float64(10 * des.Microsecond))},
			{Name: "slow", PerJob: dist.NewDeterministic(float64(1 * des.Millisecond))},
		},
		Paths: []service.PathSpec{
			{Name: "memory", Stages: []int{0}},
			{Name: "disk", Stages: []int{0, 1}},
		},
		PathProbs: []float64{0.8, 0.2},
	}
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "store")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(2000)})
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// ≈20% of requests take the 1ms path: detectable in the latency mix.
	slowShare := 0.0
	h := rep.Latency
	// p50 should be the fast path; p95 the slow one.
	if h.P50() > 100*des.Microsecond {
		t.Fatalf("p50 %v: fast path should dominate", h.P50())
	}
	if h.Quantile(0.9) < 900*des.Microsecond {
		t.Fatalf("p90 %v: slow path should appear by p90 (20%% share)", h.Quantile(0.9))
	}
	_ = slowShare
}

// TestOnJobDoneHook: the tracing hook fires once per node visit with the
// right service attribution.
func TestOnJobDoneHook(t *testing.T) {
	s := New(Options{Seed: 7})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	for _, name := range []string{"x", "y"} {
		if _, err := s.Deploy(service.SingleStage(name, dist.NewDeterministic(float64(10*des.Microsecond))),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTopology(graph.Linear("main", "x", "y")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	counts := map[string]int{}
	s.OnJobDone = func(now des.Time, j *job.Job, svc string) {
		counts[svc]++
		if servedBy(j) == nil {
			t.Error("job missing instance/machine attribution")
		}
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(counts["x"]) != rep.Completions || uint64(counts["y"]) != rep.Completions {
		t.Fatalf("hook counts %v vs completions %d", counts, rep.Completions)
	}
}

// TestLeastLoadedPolicyPrefersIdle: with one hot instance, least-loaded
// routing shifts traffic to the idle one.
func TestLeastLoadedPolicyPrefersIdle(t *testing.T) {
	s := New(Options{Seed: 8})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	// Instance 0 is slow (its machine runs everything at the same rate,
	// but we make it busy by service-time asymmetry via separate
	// deployments is complex; instead verify least-loaded balances as
	// well as round-robin under symmetric load).
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(200*des.Microsecond))),
		LeastLoaded,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(8000)})
	rep, err := s.Run(100*des.Millisecond, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for _, ir := range rep.Instances {
		counts = append(counts, float64(ir.Completed))
	}
	if len(counts) != 2 {
		t.Fatalf("instances %d", len(counts))
	}
	imbalance := math.Abs(counts[0]-counts[1]) / (counts[0] + counts[1])
	if imbalance > 0.05 {
		t.Fatalf("least-loaded imbalance %v", imbalance)
	}
}

// TestRandomPolicy: random routing also spreads load roughly evenly.
func TestRandomPolicy(t *testing.T) {
	s := New(Options{Seed: 9})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(50*des.Microsecond))),
		Random,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(9000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range rep.Instances {
		share := float64(ir.Completed) / float64(rep.Completions)
		if share < 0.25 || share > 0.42 {
			t.Fatalf("random share %v for %s", share, ir.Name)
		}
	}
}

// TestPoolTokensSetConnection: acquiring a pool token rebinds the job's
// connection id, classifying epoll subqueues by downstream connection.
func TestPoolTokensSetConnection(t *testing.T) {
	s := New(Options{Seed: 10})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	var conns []int
	bp := service.SingleStage("svc", dist.NewDeterministic(float64(10*des.Microsecond)))
	if _, err := s.Deploy(bp, RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	topo := &graph.Topology{
		Trees: []graph.Tree{{
			Name: "main", Weight: 1, Root: 0,
			Nodes: []graph.Node{{
				ID: 0, Service: "svc", Instance: -1,
				AcquireConn: []string{"p"}, ReleaseConn: []string{"p"},
			}},
		}},
		Pools: []graph.ConnPool{{Name: "p", Capacity: 2}},
	}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(1000), Proc: workload.Uniform})
	s.OnJobDone = func(now des.Time, j *job.Job, svc string) {
		conns = append(conns, j.Conn)
	}
	if _, err := s.Run(0, 20*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(conns) == 0 {
		t.Fatal("no jobs observed")
	}
	for _, c := range conns {
		if c < s.Client().Connections {
			t.Fatalf("conn %d not from the pool token space", c)
		}
	}
}

// TestDynamicBranching: a runtime brancher routes requests down exactly
// one child subtree, and pruned leaves are accounted correctly.
func TestDynamicBranching(t *testing.T) {
	s := New(Options{Seed: 11})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	for _, svc := range []struct {
		name string
		cost float64
	}{
		{"front", float64(10 * des.Microsecond)},
		{"hitpath", float64(20 * des.Microsecond)},
		{"misspath", float64(2 * des.Millisecond)},
	} {
		if _, err := s.Deploy(service.SingleStage(svc.name, dist.NewDeterministic(svc.cost)),
			RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	topo := &graph.Topology{Trees: []graph.Tree{{
		Name: "main", Weight: 1, Root: 0,
		Nodes: []graph.Node{
			{ID: 0, Service: "front", Instance: -1, Children: []int{1, 2}, BranchKey: "cache"},
			{ID: 1, Service: "hitpath", Instance: -1},
			{ID: 2, Service: "misspath", Instance: -1},
		},
	}}}
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	// Alternate: even requests hit, odd requests miss.
	n := 0
	s.RegisterBrancher("cache", func(now des.Time, req *job.Request, children []int) []int {
		n++
		if n%2 == 0 {
			return children[:1]
		}
		return children[1:]
	})
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(1000), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InFlight > 2 {
		t.Fatalf("in flight %d: pruned-leaf accounting leak", rep.InFlight)
	}
	hit := rep.PerTier["hitpath"].Count()
	miss := rep.PerTier["misspath"].Count()
	if hit+miss != rep.Completions {
		t.Fatalf("hit %d + miss %d != completions %d", hit, miss, rep.Completions)
	}
	if hit == 0 || miss == 0 {
		t.Fatal("both branches should be exercised")
	}
	// Latency bimodal: p50 fast (~30µs), p99 slow (~2ms).
	if rep.Latency.P99() < des.Millisecond {
		t.Fatalf("p99 %v should reflect the miss path", rep.Latency.P99())
	}
}

// TestBranchingValidation: an unregistered brancher fails Run naming the
// tree, node and key; invalid selections panic loudly.
func TestBranchingValidation(t *testing.T) {
	build := func() *Sim {
		s := New(Options{Seed: 12})
		s.AddMachine("m0", 8, cluster.FreqSpec{})
		for _, name := range []string{"front", "a", "b"} {
			if _, err := s.Deploy(service.SingleStage(name, dist.NewDeterministic(100)),
				RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
				t.Fatal(err)
			}
		}
		topo := &graph.Topology{Trees: []graph.Tree{{
			Name: "main", Weight: 1, Root: 0,
			Nodes: []graph.Node{
				{ID: 0, Service: "front", Instance: -1, Children: []int{1, 2}, BranchKey: "k"},
				{ID: 1, Service: "a", Instance: -1},
				{ID: 2, Service: "b", Instance: -1},
			},
		}}}
		if err := s.SetTopology(topo); err != nil {
			t.Fatal(err)
		}
		s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
		return s
	}
	// Unregistered brancher.
	_, err := build().Run(0, 20*des.Millisecond)
	if err == nil || !strings.Contains(err.Error(), `tree "main" node 0 uses unregistered brancher "k"`) {
		t.Errorf("unregistered brancher: Run error %v", err)
	}
	// Empty selection.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty selection should panic")
			}
		}()
		s := build()
		s.RegisterBrancher("k", func(des.Time, *job.Request, []int) []int { return nil })
		_, _ = s.Run(0, 20*des.Millisecond)
	}()
	// Non-child selection.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-child selection should panic")
			}
		}()
		s := build()
		s.RegisterBrancher("k", func(des.Time, *job.Request, []int) []int { return []int{0} })
		_, _ = s.Run(0, 20*des.Millisecond)
	}()
}
