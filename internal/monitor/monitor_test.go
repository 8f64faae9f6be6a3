package monitor

import (
	"strings"
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

func buildMonitored(t *testing.T, qps float64) (*sim.Sim, *Monitor) {
	t.Helper()
	s := sim.New(sim.Options{Seed: 4})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	dep, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(qps)})
	m := New(s.Engine(), 10*des.Millisecond)
	m.Watch("svc-0", dep.Instances[0])
	m.Start()
	return s, m
}

// peakQueueLen is the largest sampled queue length of one series.
func peakQueueLen(s *Series) float64 {
	peak := 0.0
	for _, p := range s.QueueLen.Points() {
		peak = max(peak, p.V)
	}
	return peak
}

func TestMonitorSamplesOnCadence(t *testing.T) {
	s, m := buildMonitored(t, 1000)
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	series := m.AllSeries()[0]
	if n := len(series.QueueLen.Points()); n < 99 || n > 101 {
		t.Fatalf("samples = %d, want ≈100", n)
	}
	if len(series.Util.Points()) != len(series.QueueLen.Points()) {
		t.Fatal("util series length mismatch")
	}
	// Under light load the queue stays empty and utilization ≈0.1.
	if peak := peakQueueLen(series); peak > 3 {
		t.Fatalf("peak queue %v at light load", peak)
	}
	last := series.Util.Points()[len(series.Util.Points())-1]
	if last.V < 0.05 || last.V > 0.15 {
		t.Fatalf("utilization %v, want ≈0.1", last.V)
	}
}

func TestMonitorSeesOverloadBacklog(t *testing.T) {
	s, m := buildMonitored(t, 20000) // 2× capacity
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	if peak := peakQueueLen(m.AllSeries()[0]); peak < 1000 {
		t.Fatalf("peak queue %v under overload, want large", peak)
	}
}

func TestMonitorCSV(t *testing.T) {
	s, m := buildMonitored(t, 1000)
	if _, err := s.Run(0, 50*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	csv := m.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "t_s,svc-0_qlen,svc-0_inflight,svc-0_util,svc-0_shed,svc-0_dropped,svc-0_up,svc-0_canceled,svc-0_wasted" {
		t.Fatalf("header %q", lines[0])
	}
	if n := len(m.AllSeries()[0].QueueLen.Points()); len(lines) != n+1 {
		t.Fatalf("csv rows %d for %d samples", len(lines)-1, n)
	}
}

func TestMonitorTracksFaults(t *testing.T) {
	// 8000 QPS on a 10k-capacity instance keeps work in flight, so the
	// kill has queued jobs to drop.
	s, m := buildMonitored(t, 8000)
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 300 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: -1},
		{At: 600 * des.Millisecond, Kind: fault.RestartInstance, Service: "svc", Instance: -1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	series := m.AllSeries()[0]
	if series.Up == nil || series.Dropped == nil {
		t.Fatal("instance target should expose health + error series")
	}
	downSamples, lost := 0, 0.0
	for i, p := range series.Up.Points() {
		if p.V == 0 {
			downSamples++
		}
		lost = series.Dropped.Points()[i].V
	}
	// Down for ≈300ms of 1s at a 10ms cadence.
	if downSamples < 25 || downSamples > 35 {
		t.Fatalf("down for %d samples, want ≈30", downSamples)
	}
	if lost == 0 {
		t.Fatal("kill window should record dropped jobs")
	}
}

func TestMonitorTracksCanceledWork(t *testing.T) {
	// 2× overload with a 5ms budget: expired requests' queued jobs are
	// discarded at dequeue, so the cumulative canceled series climbs.
	s := sim.New(sim.Options{Seed: 4})
	s.AddMachine("m0", 8, cluster.FreqSpec{})
	dep, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(des.Millisecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{
		Pattern: workload.ConstantRate(2000),
		Budget:  dist.NewDeterministic(float64(5 * des.Millisecond)),
	})
	m := New(s.Engine(), 10*des.Millisecond)
	series := m.Watch("svc-0", dep.Instances[0])
	m.Start()
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	if series.Canceled == nil || series.Wasted == nil {
		t.Fatal("instance target should expose waste series")
	}
	last := series.Canceled.Points()[len(series.Canceled.Points())-1]
	if last.V == 0 {
		t.Fatal("deadline overload should accumulate canceled work")
	}
	// Cumulative counters never decrease.
	prev := 0.0
	for _, p := range series.Canceled.Points() {
		if p.V < prev {
			t.Fatalf("canceled series decreased: %v -> %v", prev, p.V)
		}
		prev = p.V
	}
}

func TestMonitorEmptyCSV(t *testing.T) {
	m := New(des.New(), des.Second)
	if got := m.CSV(); got != "t_s\n" {
		t.Fatalf("empty csv %q", got)
	}
}

func TestMonitorGuards(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero interval should panic")
			}
		}()
		New(des.New(), 0)
	}()
	m := New(des.New(), des.Second)
	m.Start()
	defer func() {
		if recover() == nil {
			t.Error("Watch after Start should panic")
		}
	}()
	m.Watch("late", nil)
}
