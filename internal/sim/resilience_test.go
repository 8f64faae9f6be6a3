package sim

import (
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

// conserve asserts the request-conservation invariant: every arrival ends
// in exactly one bucket or is still in flight at the horizon.
func conserve(t *testing.T, rep *Report) {
	t.Helper()
	got := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
		rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight)
	if rep.Arrivals != got {
		t.Fatalf("conservation violated: arrivals %d != completions %d + timeouts %d + shed %d + dropped %d + deadline %d + unreachable %d + inflight %d",
			rep.Arrivals, rep.Completions, rep.Timeouts, rep.Shed, rep.Dropped, rep.DeadlineExpired, rep.Unreachable, rep.InFlight)
	}
}

func TestKillInstanceDropsRequestsWithoutPolicy(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 1000)
	err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 500 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Fatal("killing the only instance should drop requests")
	}
	// Roughly half the run is dead: completions ≈ first half only.
	if rep.Completions < 400 || rep.Completions > 600 {
		t.Fatalf("completions %d, want ≈500 (first half)", rep.Completions)
	}
	// Drops fail instantly, so nothing lingers in flight.
	if rep.InFlight > 1 {
		t.Fatalf("in flight %d after kill, want ≈0 (no leaked jobs)", rep.InFlight)
	}
	conserve(t, rep)
}

func TestRetriesMaskInstanceKill(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		RoundRobin,
		Placement{Machine: "m0", Cores: 1},
		Placement{Machine: "m0", Cores: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	// Deterministic arrivals every 0.625ms, alternating instances: each
	// instance starts a 1ms job every 1.25ms (80% busy), so a kill at
	// t ≡ 0.7ms (mod 1.25ms) is guaranteed to strand in-flight work
	// whichever arrival phase instance 0 ended up on.
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(1600), Proc: workload.Uniform})
	if err := s.SetServicePolicy("svc", fault.Policy{
		Timeout:     20 * des.Millisecond,
		MaxRetries:  3,
		BackoffBase: des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// Restart 5ms later: the survivor absorbs the brief 1.6× overload
	// without any attempt reaching the 20ms timeout.
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 500*des.Millisecond + 700*des.Microsecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
		{At: 505*des.Millisecond + 700*des.Microsecond, Kind: fault.RestartInstance, Service: "svc", Instance: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The kill's lost jobs are re-issued against the healthy instance:
	// availability holds at 100%, at the price of retries.
	if rep.Dropped != 0 || rep.Shed != 0 {
		t.Fatalf("retries should mask the kill: dropped %d shed %d", rep.Dropped, rep.Shed)
	}
	if rep.Retries == 0 {
		t.Fatal("the kill's in-flight jobs should have been retried")
	}
	if rep.Errors["svc"] == nil || rep.Errors["svc"].Dropped == 0 {
		t.Fatal("per-service error counters should record the dropped attempts")
	}
	conserve(t, rep)
}

func TestLoadSheddingBoundsQueue(t *testing.T) {
	// 2× overload with MaxQueue: excess arrivals are rejected immediately
	// instead of queueing without bound.
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 20000)
	if err := s.SetMaxQueue("svc", 100); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("2× overload with MaxQueue should shed")
	}
	// Goodput still pins near capacity.
	if rep.GoodputQPS < 9000 {
		t.Fatalf("goodput %v, want ≈10000", rep.GoodputQPS)
	}
	// The backlog is bounded by MaxQueue instead of ≈10k requests.
	if rep.InFlight > 150 {
		t.Fatalf("in flight %d, want ≤ MaxQueue+cores", rep.InFlight)
	}
	if rep.Instances[0].Shed != rep.Shed {
		t.Fatalf("instance shed %d vs report %d", rep.Instances[0].Shed, rep.Shed)
	}
	conserve(t, rep)
}

func TestBreakerFailsFastWhileDown(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 1000)
	if err := s.SetServicePolicy("svc", fault.Policy{
		Timeout: 10 * des.Millisecond,
		Breaker: &fault.BreakerSpec{ErrorThreshold: 0.5, Window: 10, Cooldown: 100 * des.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 200 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The first ~10 failures fill the breaker window; everything after
	// fails fast without touching the dead instance.
	if rep.BreakerFastFails == 0 {
		t.Fatal("breaker should fail calls fast once tripped")
	}
	if rep.Errors["svc"].BreakerOpen != rep.BreakerFastFails {
		t.Fatalf("breaker counters disagree: %d vs %d",
			rep.Errors["svc"].BreakerOpen, rep.BreakerFastFails)
	}
	if rep.Shed < rep.BreakerFastFails {
		t.Fatalf("breaker fast-fails %d must be a subset of shed %d",
			rep.BreakerFastFails, rep.Shed)
	}
	conserve(t, rep)
}

func TestEdgeTimeoutAbandonsSlowService(t *testing.T) {
	// Service time 50ms against a 5ms edge timeout: every attempt is
	// abandoned; the server keeps burning cycles on discarded work.
	s := buildSingle(t, dist.NewDeterministic(float64(50*des.Millisecond)), 1, 10)
	if err := s.SetServicePolicy("svc", fault.Policy{
		Timeout:     5 * des.Millisecond,
		MaxRetries:  1,
		BackoffBase: des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// A request whose edge timeouts exhaust its retries ends Timeout but
	// is counted Dropped: Timeouts is the client's own patience.
	var ended, endedTimeout int
	s.OnRequestDone = func(_ des.Time, req *job.Request) {
		ended++
		if req.Outcome == job.OutcomeTimeout {
			endedTimeout++
		}
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completions != 0 {
		t.Fatalf("nothing can finish within the timeout, got %d completions", rep.Completions)
	}
	if rep.Dropped == 0 || rep.Timeouts != 0 || ended == 0 || endedTimeout != ended {
		t.Fatalf("exhausted edge timeouts: dropped=%d timeouts=%d, %d of %d requests ended %v",
			rep.Dropped, rep.Timeouts, endedTimeout, ended, job.OutcomeTimeout)
	}
	if rep.Errors["svc"].Timeouts == 0 || rep.Retries == 0 {
		t.Fatalf("expected edge timeouts and retries, got %+v", rep.Errors["svc"])
	}
	// The abandoned attempts still occupied the server.
	if rep.Instances[0].Completed == 0 && rep.Instances[0].QueueLen == 0 {
		t.Fatal("abandoned work should still run (or queue) server-side")
	}
	conserve(t, rep)
}

func TestMachineCrashAndRecoveryWithNetwork(t *testing.T) {
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
	dep("front", "m0")
	dep("back", "m1")
	if err := s.EnableNetwork(NetworkConfig{
		CoresPerMachine: 1,
		PerMsg:          dist.NewDeterministic(float64(10 * des.Microsecond)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "front", "back")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(1000), Proc: workload.Uniform})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 300 * des.Millisecond, Kind: fault.CrashMachine, Machine: "m1"},
		{At: 500 * des.Millisecond, Kind: fault.RecoverMachine, Machine: "m1"},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 200ms of the run is dark: ≈200 requests dropped, the rest complete.
	if rep.Dropped < 150 || rep.Dropped > 250 {
		t.Fatalf("dropped %d, want ≈200 (the crash window)", rep.Dropped)
	}
	if rep.Completions < 700 {
		t.Fatalf("completions %d, want ≈800 (service recovers)", rep.Completions)
	}
	if rep.InFlight > 2 {
		t.Fatalf("in flight %d, want ≈0 (no leaked jobs through the crash)", rep.InFlight)
	}
	conserve(t, rep)
}

func TestEdgeLatencyFaultAddsDelay(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 100)
	s.clientCfg.Proc = workload.Uniform
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{Kind: fault.EdgeLatency, Service: "svc", Extra: des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(100*des.Millisecond, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 1ms injected transit + 100µs service, no queueing at this load.
	if rep.Latency.Mean() != 1100*des.Microsecond {
		t.Fatalf("mean latency %v, want exactly 1.1ms", rep.Latency.Mean())
	}
	conserve(t, rep)
}

func TestEdgeLatencyWindowExpires(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(float64(100*des.Microsecond)), 1, 100)
	s.clientCfg.Proc = workload.Uniform
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{Kind: fault.EdgeLatency, Service: "svc", Extra: des.Millisecond,
			Until: 500 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	// Measure only after the window: latency back to the service time.
	rep, err := s.Run(600*des.Millisecond, 400*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.Mean() != 100*des.Microsecond {
		t.Fatalf("mean latency %v after the window, want 100µs", rep.Latency.Mean())
	}
}

func TestDegradeFreqSlowsService(t *testing.T) {
	s := New(Options{Seed: 42})
	s.AddMachine("m0", 16, cluster.DefaultFreqSpec)
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(100), Proc: workload.Uniform})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{Kind: fault.DegradeFreq, Machine: "m0", FreqMHz: 1300},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Half the frequency: the 100µs stage takes 200µs.
	if rep.Latency.Mean() != 200*des.Microsecond {
		t.Fatalf("mean latency %v at half frequency, want 200µs", rep.Latency.Mean())
	}
}

func TestInstallFaultsValidatesReferences(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(100), 1, 100)
	cases := []fault.Plan{
		{Events: []fault.Event{{Kind: fault.CrashMachine, Machine: "ghost"}}},
		{Events: []fault.Event{{Kind: fault.KillInstance, Service: "ghost"}}},
		{Events: []fault.Event{{Kind: fault.KillInstance, Service: "svc", Instance: 7}}},
		{Events: []fault.Event{{Kind: fault.EdgeLatency, Service: "ghost", Extra: 1}}},
		{Events: []fault.Event{{Kind: fault.KillInstance}}}, // invalid event
	}
	for i, plan := range cases {
		if err := s.InstallFaults(plan); err == nil {
			t.Fatalf("case %d: invalid plan accepted", i)
		}
	}
}

func TestPolicyValidationAtInstall(t *testing.T) {
	s := buildSingle(t, dist.NewDeterministic(100), 1, 100)
	if err := s.SetServicePolicy("ghost", fault.Policy{}); err == nil {
		t.Fatal("policy for unknown service accepted")
	}
	if err := s.SetServicePolicy("svc", fault.Policy{MaxRetries: 1}); err == nil {
		t.Fatal("retries without timeout accepted")
	}
	if err := s.SetNodePolicy("ghost", 0, fault.Policy{}); err == nil {
		t.Fatal("node policy for unknown tree accepted")
	}
	if err := s.SetNodePolicy("main", 9, fault.Policy{}); err == nil {
		t.Fatal("node policy for out-of-range node accepted")
	}
	if err := s.SetMaxQueue("ghost", 5); err == nil {
		t.Fatal("max queue for unknown service accepted")
	}
}
