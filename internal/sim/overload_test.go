package sim

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// TestDeadlineShortCircuitsOverload: at 2× saturation with a 5ms budget,
// requests that cannot start in time expire into the DeadlineExpired
// bucket and their queued jobs are cancelled unserved. FIFO order means
// the server keeps picking near-expired heads that then die mid-service
// (wasted work) — the pathology CoDel/LIFO exist to fix — but served
// latency and the backlog stay budget-bounded.
func TestDeadlineShortCircuitsOverload(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 2000)
	cfg := s.Client()
	cfg.Budget = dist.NewDeterministic(float64(5 * des.Millisecond))
	s.SetClient(cfg)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.DeadlineExpired == 0 {
		t.Fatal("2× overload with a 5ms budget must expire requests")
	}
	// Expired requests' queued jobs are discarded before service…
	if rep.CanceledWork == 0 {
		t.Fatal("expired requests should cancel their queued jobs")
	}
	// …and the ones already on a core run to a useless completion.
	if rep.WastedWork == 0 {
		t.Fatal("FIFO under deadline overload should waste in-service work")
	}
	// Every delivered response met the 5ms budget.
	if max := rep.Latency.Quantile(1); max > 5*des.Millisecond {
		t.Fatalf("served latency %v exceeds the budget", max)
	}
	// The backlog is bounded by the budget, not the run length.
	if rep.InFlight > 20 {
		t.Fatalf("in flight %d, want a budget-bounded backlog", rep.InFlight)
	}
}

// TestDeadlineGenerousBudgetIsInvisible: with a budget far above the
// system's latency, the deadline machinery must not perturb outcomes.
func TestDeadlineGenerousBudgetIsInvisible(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 100)
	cfg := s.Client()
	cfg.Budget = dist.NewDeterministic(float64(100 * des.Millisecond))
	s.SetClient(cfg)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.DeadlineExpired != 0 || rep.CanceledWork != 0 || rep.WastedWork != 0 {
		t.Fatalf("deadline=%d canceled=%d wasted=%d under light load",
			rep.DeadlineExpired, rep.CanceledWork, rep.WastedWork)
	}
	if rep.Completions != rep.Arrivals-uint64(rep.InFlight) {
		t.Fatal("every arrival should complete")
	}
}

// TestDeadlineCancelsPendingRetry: a request whose budget expires during
// retry backoff terminates at the deadline, not at the next attempt.
func TestDeadlineCancelsPendingRetry(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 100)
	cfg := s.Client()
	cfg.Budget = dist.NewDeterministic(float64(10 * des.Millisecond))
	s.SetClient(cfg)
	if err := s.SetServicePolicy("svc", fault.Policy{
		Timeout:     5 * des.Millisecond,
		MaxRetries:  5,
		BackoffBase: 50 * des.Millisecond, // far beyond the budget
	}); err != nil {
		t.Fatal(err)
	}
	// The only instance dies at 0.5s and never recovers: attempts fail
	// instantly, the retry backoff outlives the budget.
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 500 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.DeadlineExpired == 0 {
		t.Fatal("requests stuck in backoff should expire")
	}
	// Conservation would break here if expired requests later resumed
	// their retries; InFlight must not accumulate the dead half-run.
	if rep.InFlight > 20 {
		t.Fatalf("in flight %d, want ≈0", rep.InFlight)
	}
}

// hedgeTopology builds one service on two machines; m0 runs at half
// frequency, so its instance serves svcMS·2 while m1 serves svcMS.
func hedgeTopology(t *testing.T, svcMS float64, pol fault.Policy, qps float64) *Sim {
	t.Helper()
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 8, cluster.DefaultFreqSpec)
	s.AddMachine("m1", 8, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(
		service.SingleStage("svc", dist.NewDeterministic(svcMS*float64(des.Millisecond))),
		RoundRobin,
		Placement{Machine: "m0", Cores: 2},
		Placement{Machine: "m1", Cores: 2},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("svc", pol); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{Kind: fault.DegradeFreq, Machine: "m0", FreqMHz: 1300},
	}}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(qps), Proc: workload.Uniform})
	return s
}

// TestHedgeRescuesSlowInstance: requests routed to the degraded instance
// (8ms) are rescued by a backup on the healthy one (1ms delay + 4ms
// service = 5ms), pulling the tail in. Requests on the healthy instance
// win their own races, so hedges are issued on both sides but only the
// slow side's win.
func TestHedgeRescuesSlowInstance(t *testing.T) {
	s := hedgeTopology(t, 4, fault.Policy{
		Hedge: &fault.HedgeSpec{Delay: des.Millisecond},
	}, 100)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.HedgesIssued == 0 {
		t.Fatal("4ms/8ms service with a 1ms hedge delay must hedge")
	}
	if rep.HedgeWins == 0 {
		t.Fatal("hedges to the healthy instance must win against the degraded one")
	}
	// Slow-side requests finish at 5ms (hedged) instead of 8ms; the
	// fast side at 4ms. Unrescued the mean would be 6ms.
	if max := rep.Latency.Quantile(1); max > 6*des.Millisecond {
		t.Fatalf("max latency %v; hedging should cap the slow side ≈5ms", max)
	}
	// Every rescued primary and beaten hedge is discarded work.
	if rep.CanceledWork+rep.WastedWork == 0 {
		t.Fatal("hedge losers must surface as canceled or wasted work")
	}
	if rep.Errors["svc"] == nil || rep.Errors["svc"].Hedges != rep.HedgesIssued {
		t.Fatal("per-service hedge counter should match the report")
	}
	// A hedge is an attempt, not an arrival.
	if rep.Arrivals > 110 {
		t.Fatalf("arrivals %d; hedges must not count as arrivals", rep.Arrivals)
	}
}

// TestHedgeQuantileDelayWarmsUp: with a quantile-based delay the edge
// hedges only after MinSamples observed latencies, then races only the
// tail of a heavy-tailed service (90% ≈1ms, 10% ≈20ms): a hedge fired at
// the observed p90 usually lands on a fast sample and wins.
func TestHedgeQuantileDelayWarmsUp(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	cost := dist.NewHyperExp(0.9, float64(des.Millisecond), float64(20*des.Millisecond))
	if _, err := s.Deploy(
		service.SingleStage("svc", cost),
		RoundRobin,
		Placement{Machine: "m0", Cores: 2},
		Placement{Machine: "m0", Cores: 2},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("svc", fault.Policy{
		Hedge: &fault.HedgeSpec{Quantile: 0.9, MinSamples: 32},
	}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(200), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.HedgesIssued == 0 {
		t.Fatal("the estimator should warm up and start hedging")
	}
	// Only the tail hedges: a p90 trigger must not fire for most calls.
	if rep.HedgesIssued > rep.Arrivals/2 {
		t.Fatalf("hedged %d of %d requests; p90 trigger should be rare",
			rep.HedgesIssued, rep.Arrivals)
	}
	if rep.HedgeWins == 0 {
		t.Fatal("hedges against tail samples should win")
	}
}

// TestHedgePinnedEdgeNeverHedges: a node pinned to one instance has no
// "different instance" to race, so the policy must stay silent.
func TestHedgePinnedEdgeNeverHedges(t *testing.T) {
	s := New(Options{Seed: 7})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	if _, err := s.Deploy(
		service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		RoundRobin,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	topo := graph.Linear("main", "svc")
	topo.Trees[0].Nodes[0].Instance = 0
	if err := s.SetTopology(topo); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("svc", fault.Policy{
		Hedge: &fault.HedgeSpec{Delay: des.Microsecond},
	}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.HedgesIssued != 0 {
		t.Fatalf("pinned edge issued %d hedges", rep.HedgesIssued)
	}
}

// TestCoDelDisciplineShedsUnderOverload: CoDel admission at sustained 2×
// saturation sheds stale work at dequeue into the Shed bucket while
// completions keep flowing at capacity.
func TestCoDelDisciplineShedsUnderOverload(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 2000)
	if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{
		Kind:     fault.QueueCoDel,
		Target:   2 * des.Millisecond,
		Interval: 20 * des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.Shed == 0 {
		t.Fatal("CoDel must shed at sustained 2× overload")
	}
	// Shed jobs were admitted, then dropped at dequeue; the instance
	// reports them alongside MaxQueue sheds.
	if rep.Instances[0].Shed == 0 {
		t.Fatal("instance shed counter should record CoDel drops")
	}
	// Completions keep flowing at capacity.
	if rep.GoodputQPS < 900 {
		t.Fatalf("goodput %v, want ≈1000 (capacity)", rep.GoodputQPS)
	}
}

// TestGracefulDegradationUnderOverload is the tentpole end-to-end check:
// deadline propagation plus CoDel-governed adaptive LIFO at 2× saturation
// holds goodput at capacity with every served response inside the budget
// and almost no wasted service — where FIFO + deadline alone collapses
// into wasted work (TestDeadlineShortCircuitsOverload).
func TestGracefulDegradationUnderOverload(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 2000)
	cfg := s.Client()
	cfg.Budget = dist.NewDeterministic(float64(5 * des.Millisecond))
	s.SetClient(cfg)
	if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{
		Kind:   fault.QueueCoDelLIFO,
		Target: 2 * des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, rep)
	if rep.GoodputQPS < 900 {
		t.Fatalf("goodput %v, want ≈1000 (capacity)", rep.GoodputQPS)
	}
	if max := rep.Latency.Quantile(1); max > 5*des.Millisecond {
		t.Fatalf("served latency %v exceeds the budget", max)
	}
	// The excess load expires cheaply (cancelled before service) instead
	// of burning cores.
	if rep.DeadlineExpired == 0 || rep.CanceledWork == 0 {
		t.Fatalf("deadline=%d canceled=%d; excess load should expire unserved",
			rep.DeadlineExpired, rep.CanceledWork)
	}
	if rep.WastedWork > 50 {
		t.Fatalf("wasted %d services; adaptive LIFO should serve live work", rep.WastedWork)
	}
}

// TestSetQueueDisciplineValidation covers wiring errors.
func TestSetQueueDisciplineValidation(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 100)
	if err := s.SetQueueDiscipline("nope", fault.QueueDiscipline{Kind: fault.QueueCoDel}); err == nil {
		t.Fatal("unknown service must error")
	}
	if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{Target: -1}); err == nil {
		t.Fatal("invalid discipline must error")
	}
	if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{Kind: fault.QueueCoDelLIFO}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveLIFOUnderOverloadSim: with client timeouts, LIFO-under-
// overload serves fresh requests that can still meet their patience,
// sustaining goodput where FIFO serves requests that already timed out.
func TestAdaptiveLIFOUnderOverloadSim(t *testing.T) {
	run := func(kind fault.QueueKind) *Report {
		s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, 2000)
		cfg := s.Client()
		cfg.Timeout = 10 * des.Millisecond
		s.SetClient(cfg)
		if kind != fault.QueueFIFO {
			if err := s.SetQueueDiscipline("svc", fault.QueueDiscipline{
				Kind:   kind,
				Target: 2 * des.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Run(0, des.Second)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, rep)
		return rep
	}
	fifo := run(fault.QueueFIFO)
	lifo := run(fault.QueueLIFO)
	// FIFO at 2× with 10ms patience: the queue outgrows the patience and
	// completions collapse — almost everything times out. LIFO keeps
	// serving fresh arrivals.
	if lifo.Completions < 2*fifo.Completions {
		t.Fatalf("adaptive LIFO completions %d vs FIFO %d; want a clear win",
			lifo.Completions, fifo.Completions)
	}
}
