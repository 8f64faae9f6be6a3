package sim

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// buildTwoTierHybrid builds front (m0) → backend (m1) with a hybrid
// fidelity split, the setup the fluid-tier fault-coupling tests drive.
func buildTwoTierHybrid(t *testing.T, qps, sampleRate float64) *Sim {
	t.Helper()
	s := New(Options{Seed: 77})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	s.AddMachine("m1", 8, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("front", dist.NewDeterministic(float64(des.Millisecond))), RoundRobin,
		Placement{Machine: "m0", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(service.SingleStage("backend", dist.NewDeterministic(float64(2*des.Millisecond))), RoundRobin,
		Placement{Machine: "m1", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "front", "backend")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(qps)})
	s.SetHybrid(hybrid.Config{SampleRate: sampleRate})
	return s
}

func checkBackgroundBooks(t *testing.T, rep *Report) {
	t.Helper()
	if rep.BackgroundArrivals != rep.BackgroundCompletions+rep.BackgroundShed+rep.BackgroundUnreachable {
		t.Fatalf("background conservation: arr=%d comp=%d shed=%d unreach=%d",
			rep.BackgroundArrivals, rep.BackgroundCompletions, rep.BackgroundShed, rep.BackgroundUnreachable)
	}
	var byCause uint64
	for _, n := range rep.BackgroundShedByCause {
		byCause += n
	}
	if lost := rep.BackgroundShed + rep.BackgroundUnreachable; byCause != lost {
		t.Fatalf("attribution sum %d != shed+unreach %d (%v)", byCause, lost, rep.BackgroundShedByCause)
	}
}

// TestHybridPartitionBackgroundUnreachable: a partition severing the
// front→backend edge must route background flow into the Unreachable
// bucket under the partition cause, starting at the fault boundary
// itself (the window edges are deliberately off the 50ms epoch grid).
func TestHybridPartitionBackgroundUnreachable(t *testing.T) {
	s := buildTwoTierHybrid(t, 500, 0.25)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 473 * des.Millisecond, Kind: fault.PartitionStart,
			GroupA: []string{"m0"}, GroupB: []string{"m1"},
			Until: 911 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkBackgroundBooks(t, rep)
	// 438ms of severed backend edge at 500 qps · 0.75 background: every
	// background request in the window is unreachable. Epoch-grid-only
	// re-solves would be ~20 requests off; event-driven lands exact.
	const want = uint64(164) // 0.438s · 500 qps · 0.75 background
	if rep.BackgroundUnreachable < want-3 || rep.BackgroundUnreachable > want+3 {
		t.Fatalf("background unreachable %d, want ~%d (fault boundaries not event-driven?)", rep.BackgroundUnreachable, want)
	}
	if got := rep.BackgroundShedByCause[hybrid.CausePartition]; got != rep.BackgroundUnreachable+rep.BackgroundShed {
		t.Fatalf("partition attribution %d, want %d (%v)",
			got, rep.BackgroundUnreachable, rep.BackgroundShedByCause)
	}
}

// TestHybridGrayLinkThinsBackground: a lossy link on the backend edge
// books drop-probability-scaled background flow as unreachable under the
// gray_link cause.
func TestHybridGrayLinkBackground(t *testing.T) {
	s := buildTwoTierHybrid(t, 500, 0.25)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 500 * des.Millisecond, Kind: fault.SetLink,
			Src: "m0", Dst: "m1", Drop: 0.2,
			Until: 1500 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkBackgroundBooks(t, rep)
	// One second at 20% drop: 500·0.75·0.2 = 75 background requests.
	const want = uint64(500 * 0.75 * 0.2)
	if rep.BackgroundUnreachable < want-3 || rep.BackgroundUnreachable > want+3 {
		t.Fatalf("background unreachable %d, want ~%d", rep.BackgroundUnreachable, want)
	}
	if got := rep.BackgroundShedByCause[hybrid.CauseGrayLink]; got == 0 {
		t.Fatalf("gray-link attribution missing: %v", rep.BackgroundShedByCause)
	}
}

// TestHybridDVFSDegradeShedsByCause: underclocking the only machine of a
// near-capacity service halves effective µ, saturates the fluid tier, and
// the shed flow books under degrade_freq.
func TestHybridDVFSDegradeShedsByCause(t *testing.T) {
	s := New(Options{Seed: 9})
	s.AddMachine("m0", 8, cluster.FreqSpec{MinMHz: 1000, MaxMHz: 2000, StepMHz: 100})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(10*des.Millisecond))), RoundRobin,
		Placement{Machine: "m0", Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(ClientConfig{Pattern: workload.ConstantRate(300)}) // rho 0.75 nominal
	s.SetHybrid(hybrid.Config{SampleRate: 0.25})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 500 * des.Millisecond, Kind: fault.DegradeFreq, Machine: "m0",
			FreqMHz: 1000, Until: 1500 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkBackgroundBooks(t, rep)
	if rep.BackgroundShed == 0 {
		t.Fatal("DVFS-saturated run shed no background flow")
	}
	// Degraded capacity 200 of 300 offered for 1s: a third of the window's
	// 225 background arrivals shed.
	const want = uint64(300 * 0.75 / 3)
	if rep.BackgroundShed < want-5 || rep.BackgroundShed > want+5 {
		t.Fatalf("background shed %d, want ~%d", rep.BackgroundShed, want)
	}
	if got := rep.BackgroundShedByCause[hybrid.CauseDegradeFreq]; got == 0 {
		t.Fatalf("degrade_freq attribution missing: %v", rep.BackgroundShedByCause)
	}
}

// TestHybridRetryAmplificationSheds: a resilience policy with a tight
// timeout saturates the backend in mean field even though one attempt per
// request would be stable — the metastable retry storm, visible in
// background accounting as retry_storm shed.
func TestHybridRetryAmplificationSheds(t *testing.T) {
	s := buildTwoTierHybrid(t, 1500, 0.25) // backend rho 0.75 at one attempt
	if err := s.SetServicePolicy("backend", fault.Policy{
		Timeout:     des.Millisecond / 2,
		MaxRetries:  5,
		BackoffBase: des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, 2*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkBackgroundBooks(t, rep)
	if rep.BackgroundShed == 0 {
		t.Fatal("retry storm shed no background flow")
	}
	if got := rep.BackgroundShedByCause[hybrid.CauseRetryStorm]; got == 0 {
		t.Fatalf("retry_storm attribution missing: %v", rep.BackgroundShedByCause)
	}
}

// TestHybridFaultResolvesPinned: one window of each windowed kind re-solves
// the fluid tier on every apply and on every heal but edge_latency's
// (the fluid tier does not model edge latency): 5 + 4 = 9 resolves, the
// count and fluid work pinned from before heals were posted in one place.
func TestHybridFaultResolvesPinned(t *testing.T) {
	ms := des.Millisecond
	s := buildTwoTierHybrid(t, 500, 0.25)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 110 * ms, Until: 230 * ms, Kind: fault.DegradeFreq, Machine: "m1", FreqMHz: 1300},
		{At: 260 * ms, Until: 390 * ms, Kind: fault.EdgeLatency, Service: "backend", Instance: -1, Extra: ms},
		{At: 420 * ms, Until: 530 * ms, Kind: fault.PartitionStart, GroupA: []string{"m0"}, GroupB: []string{"m1"}},
		{At: 560 * ms, Until: 680 * ms, Kind: fault.SetLink, Src: "m0", Dst: "m1", Drop: 0.1},
		{At: 710 * ms, Until: 830 * ms, Kind: fault.LoadStep, Factor: 1.5},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkBackgroundBooks(t, rep)
	if want := (hybrid.Counters{Epochs: 21, Resolves: 9, MemoHits: 50, Recurrences: 5}); rep.FluidWork != want {
		t.Fatalf("fluid work %+v, want %+v", rep.FluidWork, want)
	}
}

// TestHybridFaultsInertAtFullRate: with sample rate 1.0 the fluid tier
// does not exist, fault boundaries resolve nothing, and the report's
// background buckets stay empty — the inertness contract extended to the
// fault-coupling paths.
func TestHybridFaultsInertAtFullRate(t *testing.T) {
	s := buildTwoTierHybrid(t, 200, 1.0)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 473 * des.Millisecond, Kind: fault.PartitionStart,
			GroupA: []string{"m0"}, GroupB: []string{"m1"},
			Until: 911 * des.Millisecond},
		{At: 200 * des.Millisecond, Kind: fault.SetLink, Src: "m0", Dst: "m1",
			Drop: 0.1, Until: 300 * des.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BackgroundArrivals != 0 || rep.BackgroundUnreachable != 0 || rep.BackgroundShedByCause != (hybrid.Losses{}) {
		t.Fatalf("sample rate 1.0 accrued background state: arr=%d unreach=%d by=%v",
			rep.BackgroundArrivals, rep.BackgroundUnreachable, rep.BackgroundShedByCause)
	}
}
