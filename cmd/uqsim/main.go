// Command uqsim runs one simulation described by a directory of JSON
// configuration files (the paper's Table I inputs: machines.json,
// service.json, graph.json, path.json, client.json) and prints throughput
// and latency reports.
//
// Usage:
//
//	uqsim -config configs/twotier [-qps 30000] [-duration 2s] [-csv] [-faults faults.json] [-max-wall 30s]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof [-memprofilerate 1]]
//
// SIGINT/SIGTERM and the -max-wall watchdog stop the simulation cleanly:
// the partial report up to the stopped virtual clock is still printed and
// the process exits nonzero.
//
// Exit codes: 0 completed, 1 interrupted or failed (report printed is
// partial), 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/des"
	"uqsim/internal/experiments"
	"uqsim/internal/workload"
)

func main() {
	cfgDir := flag.String("config", "", "directory with machines/service/graph/path/client.json")
	qps := flag.Float64("qps", 0, "override the client's constant offered load (QPS)")
	duration := flag.Duration("duration", 0, "override the measured window (virtual time)")
	warmup := flag.Duration("warmup", 0, "override the warmup window (virtual time)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	faults := flag.String("faults", "", "faults.json with resilience policies and a fault plan (overrides <config>/faults.json)")
	maxWall := flag.Duration("max-wall", 0, "stop the run after this much wall-clock time, flush partial results, exit nonzero")
	fidelity := flag.String("fidelity", "", `override the engine fidelity: "full" or "hybrid"`)
	sampleRate := flag.Float64("sample-rate", 0, "hybrid foreground sample fraction in (0,1] (requires -fidelity hybrid or a hybrid config)")
	var prof cli.Profiles
	prof.Register(flag.CommandLine)
	flag.Parse()

	if *cfgDir == "" {
		fmt.Fprintln(os.Stderr, "uqsim: -config is required")
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	wd := cli.StartWatchdog(*maxWall)
	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "uqsim:", err)
		os.Exit(cli.ExitUsage)
	}
	err = run(*cfgDir, *faults, *qps, *warmup, *duration, *csv, *fidelity, *sampleRate)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uqsim:", err)
		os.Exit(cli.ExitPartial)
	}
	if wd.Interrupted() {
		fmt.Fprintf(os.Stderr, "uqsim: interrupted (%s); results above are partial\n", wd.Reason())
		os.Exit(cli.ExitPartial)
	}
}

func run(cfgDir, faultsPath string, qps float64, warmup, duration time.Duration, csv bool, fidelity string, sampleRate float64) error {
	var setup *config.Setup
	var err error
	if faultsPath != "" {
		setup, err = config.LoadDirWithFaults(cfgDir, faultsPath)
	} else {
		setup, err = config.LoadDir(cfgDir)
	}
	if err != nil {
		return err
	}
	if qps > 0 {
		cc := setup.Sim.Client()
		cc.Pattern = workload.ConstantRate(qps)
		cc.ClosedUsers = 0
		cc.Sessions = nil
		setup.Sim.SetClient(cc)
	}
	if err := experiments.ApplyFidelity(setup.Sim, fidelity, sampleRate); err != nil {
		return err
	}
	w, d := setup.Warmup, setup.Duration
	if warmup > 0 {
		w = des.FromDuration(warmup)
	}
	if duration > 0 {
		d = des.FromDuration(duration)
	}
	rep, err := setup.Sim.Run(w, d)
	if err != nil {
		return err
	}
	for _, t := range experiments.ReportTables(rep) {
		if csv {
			fmt.Print(t.CSV())
			fmt.Println()
		} else {
			fmt.Println(t.String())
		}
	}
	return nil
}
