package experiments

import (
	"fmt"
	"slices"
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

func TestReportTables(t *testing.T) {
	s := sim.New(sim.Options{Seed: 2})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(1000)})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	tables := ReportTables(rep)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	sum, tiers, insts := tables[0], tables[1], tables[2]
	if len(sum.Rows) != 1 {
		t.Fatal("summary should have one row")
	}
	joined := sum.String()
	for _, col := range []string{"goodput_qps", "timeouts", "p99_ms"} {
		if !strings.Contains(joined, col) {
			t.Fatalf("summary missing %s:\n%s", col, joined)
		}
	}
	if len(tiers.Rows) != 1 || tiers.Rows[0][0] != "svc" {
		t.Fatalf("tier rows %v", tiers.Rows)
	}
	if len(insts.Rows) != 1 || insts.Rows[0][0] != "svc-0" {
		t.Fatalf("instance rows %v", insts.Rows)
	}
	// CSV renders without error and with matching row counts.
	if got := strings.Count(sum.CSV(), "\n"); got != 2 {
		t.Fatalf("summary csv lines %d", got)
	}
}

func TestReportTablesErrorBreakdown(t *testing.T) {
	s := sim.New(sim.Options{Seed: 2})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewDeterministic(float64(100*des.Microsecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(1000)})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{
		{At: 300 * des.Millisecond, Kind: fault.KillInstance, Service: "svc", Instance: -1},
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	tables := ReportTables(rep)
	if len(tables) != 4 {
		t.Fatalf("tables = %d, want errors table appended", len(tables))
	}
	errs := tables[3]
	if len(errs.Rows) != 1 || errs.Rows[0][0] != "svc" {
		t.Fatalf("error rows %v", errs.Rows)
	}
	if errs.Rows[0][3] == "0" {
		t.Fatalf("svc dropped column should be nonzero: %v", errs.Rows[0])
	}
}

// TestReportTablesUnreachable: attempts a partition fails fast are counted
// per service, and the call-errors table prints them.
func TestReportTablesUnreachable(t *testing.T) {
	s := sim.New(sim.Options{Seed: 2})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	s.AddMachine("m1", 4, cluster.FreqSpec{})
	for _, d := range []struct{ svc, machine string }{{"front", "m0"}, {"back", "m1"}} {
		if _, err := s.Deploy(service.SingleStage(d.svc, dist.NewDeterministic(float64(100*des.Microsecond))),
			sim.RoundRobin, sim.Placement{Machine: d.machine, Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTopology(graph.Linear("main", "front", "back")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("back", fault.Policy{Timeout: 10 * des.Millisecond, MaxRetries: 1}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(1000)})
	if err := s.InstallFaults(fault.Plan{Events: []fault.Event{{
		At: 300 * des.Millisecond, Until: 600 * des.Millisecond, Kind: fault.PartitionStart,
		GroupA: []string{"m0"}, GroupB: []string{"m1"},
	}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	tables := ReportTables(rep)
	errs := tables[len(tables)-1]
	col := slices.Index(errs.Columns, "unreachable")
	if !strings.HasPrefix(errs.Title, "Per-service call errors") || col < 0 {
		t.Fatalf("last table %q has columns %v, want the call errors with unreachable", errs.Title, errs.Columns)
	}
	ec := rep.Errors["back"]
	if ec == nil || ec.Unreachable == 0 {
		t.Fatalf("back errors %+v, want unreachable attempts from the partition", ec)
	}
	for _, row := range errs.Rows {
		if row[0] == "back" && row[col] != fmt.Sprint(ec.Unreachable) {
			t.Fatalf("back row %v prints unreachable %s, want %d", row, row[col], ec.Unreachable)
		}
	}
}

// TestReportTablesTimers: a run that arms policy timers gains the timer
// table, and each kind's cancelled + fired never exceeds its armed.
func TestReportTablesTimers(t *testing.T) {
	s := sim.New(sim.Options{Seed: 2})
	s.AddMachine("m0", 4, cluster.FreqSpec{})
	if _, err := s.Deploy(service.SingleStage("svc", dist.NewExponential(float64(400*des.Microsecond))),
		sim.RoundRobin, sim.Placement{Machine: "m0", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(graph.Linear("main", "svc")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetServicePolicy("svc", fault.Policy{Timeout: des.Millisecond, MaxRetries: 1, BackoffBase: des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.SetClient(sim.ClientConfig{Pattern: workload.ConstantRate(1500), Timeout: 20 * des.Millisecond})
	rep, err := s.Run(0, des.Second)
	if err != nil {
		t.Fatal(err)
	}
	tables := ReportTables(rep)
	timers := tables[3]
	tw := rep.Timers
	if !strings.HasPrefix(timers.Title, "Timers") || len(timers.Rows) != len(tw) {
		t.Fatalf("table 3 is %q with %d rows, want one per timer kind", timers.Title, len(timers.Rows))
	}
	if tw[sim.TimerClientTimeout].Armed < rep.Arrivals || tw[sim.TimerAttemptTimeout].Fired == 0 ||
		tw[sim.TimerRetryBackoff].Armed != rep.Retries {
		t.Fatalf("timer counts %+v do not match %d arrivals, %d retries", tw, rep.Arrivals, rep.Retries)
	}
	for k, n := range tw {
		if timers.Rows[k][0] != sim.TimerKind(k).String() {
			t.Fatalf("timer row %d is %q, want %q", k, timers.Rows[k][0], sim.TimerKind(k))
		}
		if n.Cancelled+n.Fired > n.Armed {
			t.Fatalf("%s timer counts %+v: cancelled + fired exceeds armed", sim.TimerKind(k), n)
		}
	}
}
