package sim

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/graph"
	"uqsim/internal/service"
)

// slowSingle builds a deliberately saturated one-core service so requests
// queue long enough to trip the client timeout.
func slowSingle(t *testing.T, qps float64, timeout des.Time, retries int) *Sim {
	t.Helper()
	s := buildSingle(t, dist.NewDeterministic(float64(des.Millisecond)), 1, qps)
	cc := s.Client()
	cc.Timeout = timeout
	cc.MaxRetries = retries
	s.SetClient(cc)
	return s
}

func TestTimeoutsCountedUnderOverload(t *testing.T) {
	// Capacity 1000 QPS, offered 2000, patience 20ms: the backlog grows
	// ~1ms per ms, so within ~40ms every new request times out.
	s := slowSingle(t, 2000, 20*des.Millisecond, 0)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts == 0 {
		t.Fatal("overloaded run should time out requests")
	}
	if rep.Timeouts+rep.Completions < 1800 {
		t.Fatalf("accounting gap: %d timeouts + %d completions", rep.Timeouts, rep.Completions)
	}
	// Client-observed latency is capped at the timeout.
	if rep.Latency.Quantile(1) > 20*des.Millisecond {
		t.Fatalf("latency max %v exceeds patience", rep.Latency.Quantile(1))
	}
}

func TestNoTimeoutsUnderLightLoad(t *testing.T) {
	s := slowSingle(t, 100, 20*des.Millisecond, 0)
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts != 0 {
		t.Fatalf("light load should not time out (%d)", rep.Timeouts)
	}
	if rep.Completions == 0 {
		t.Fatal("no completions")
	}
}

func TestRetriesAmplifyLoad(t *testing.T) {
	// Same overload with retries: the retry storm adds arrivals.
	base := slowSingle(t, 2000, 20*des.Millisecond, 0)
	baseRep, err := base.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	retry := slowSingle(t, 2000, 20*des.Millisecond, 2)
	retryRep, err := retry.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if retryRep.Arrivals <= baseRep.Arrivals+500 {
		t.Fatalf("retries should add load: %d vs %d arrivals",
			retryRep.Arrivals, baseRep.Arrivals)
	}
}

func TestTimeoutClosedLoopUserMovesOn(t *testing.T) {
	// A closed-loop user whose request times out issues the next request
	// at the timeout instant, not at eventual completion.
	s := New(Options{Seed: 21})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s.Deploy(
		service.SingleStage("svc", dist.NewDeterministic(float64(50*des.Millisecond))),
		RoundRobin, Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{
		ClosedUsers: 1,
		Timeout:     10 * des.Millisecond,
	})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Service takes 50ms but patience is 10ms: the user cycles every
	// ~10ms (≈100 attempts/s), all timing out.
	if rep.Timeouts < 15 {
		t.Fatalf("timeouts = %d, want the user to cycle on timeouts", rep.Timeouts)
	}
}
