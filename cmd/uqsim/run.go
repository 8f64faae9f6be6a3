package main

import (
	"context"
	"fmt"
	"sort"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
	"uqsim/internal/trace"
)

// runCmd runs one simulation of a config directory and prints throughput
// and latency reports. An interrupted run still prints the report up to
// the stopped virtual clock.
func runCmd(args []string) int {
	f := newFlags("run")
	f.withConfig()
	f.withQPS()
	f.withWarmup()
	f.withDuration()
	f.withFaults()
	f.withFidelity()
	f.withCSV()
	f.withMaxWall()
	f.withProfiles()
	if code, ok := f.parse(args, true); !ok {
		return code
	}
	ctx := cli.StartWatchdog(f.maxWall)
	stopProfiles, err := f.prof.Start()
	if err != nil {
		return f.fail(cli.ExitUsage, "%v", err)
	}
	err = report(ctx, f)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	if ctx.Err() != nil {
		return f.fail(cli.ExitPartial, "interrupted (%v); results above are partial", context.Cause(ctx))
	}
	return cli.ExitOK
}

func report(ctx context.Context, f *flags) error {
	setup, err := config.Load(f.config, f.over)
	if err != nil {
		return err
	}
	defer setup.Sim.Bind(ctx)()
	rep, err := setup.Run()
	if err != nil {
		return err
	}
	eng := experiments.NewTable("Event engine (simulator-side; not in the fingerprint)", "heap_peak", "lane_peak", "calendar_peak")
	eng.Add(fmt.Sprintf("%d", rep.HeapPeak), fmt.Sprintf("%d", rep.LanePeak), fmt.Sprintf("%d", rep.CalendarPeak))
	for _, t := range append(experiments.ReportTables(rep), eng) {
		if f.csv {
			fmt.Print(t.CSV())
			fmt.Println()
		} else {
			fmt.Println(t.String())
		}
	}
	return nil
}

// traceCmd runs a simulation with request tracing enabled and prints the
// waterfalls of the slowest sampled requests — the microservices-debugging
// workflow the paper motivates (which tier on the critical path caused
// the tail?). An interrupted run still reports the traces collected so
// far.
func traceCmd(args []string) int {
	f := newFlags("trace")
	f.withConfig()
	f.withQPS()
	f.withDuration()
	f.withMaxWall()
	slowest := f.Int("slowest", 3, "how many slowest requests to print")
	sample := f.Int("sample", 1, "trace one of every N requests")
	if code, ok := f.parse(args, true); !ok {
		return code
	}
	ctx := cli.StartWatchdog(f.maxWall)
	setup, err := config.Load(f.config, f.over)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	defer setup.Sim.Bind(ctx)()
	tr := trace.New(*sample)
	tr.MaxTraces = 65536
	setup.Sim.OnJobDone = tr.OnJobDone
	setup.Sim.OnRequestDone = tr.OnRequestDone

	rep, err := setup.Run()
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	fmt.Printf("completions=%d p50=%v p99=%v traced=%d\n\n",
		rep.Completions, rep.Latency.P50(), rep.Latency.P99(), len(tr.Traces()))

	fmt.Printf("--- %d slowest traced requests ---\n", *slowest)
	counts := map[string]int{}
	for _, r := range tr.Traces() {
		if crit, ok := r.CriticalSpan(); ok {
			counts[crit.Service]++
		}
	}
	for _, r := range tr.Slowest(*slowest) {
		fmt.Println(r.Waterfall())
		if crit, ok := r.CriticalSpan(); ok {
			fmt.Printf("  → critical tier: %s (%v of %v)\n\n",
				crit.Service, crit.Residence(), r.Latency())
		}
	}
	fmt.Println("critical-tier frequency across all traces:")
	svcs := make([]string, 0, len(counts))
	for svc := range counts {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		fmt.Printf("  %-14s %d\n", svc, counts[svc])
	}
	if ctx.Err() != nil {
		return f.fail(cli.ExitPartial, "PARTIAL: interrupted (%v); traces above cover the truncated run", context.Cause(ctx))
	}
	return cli.ExitOK
}
