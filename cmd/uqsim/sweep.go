package main

import (
	"fmt"
	"os"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
	"uqsim/internal/sim"
)

// sweepCmd measures the load–latency curve of a config directory: it
// re-runs the scenario across a grid of offered loads and prints one row
// per load (the data behind every figure in the paper's validation).
// `uqsim farm` fans the same points out across worker processes; both
// produce byte-identical rows. An interrupted sweep prints only the rows
// of the points that finished.
func sweepCmd(args []string) int {
	f := newFlags("sweep")
	f.withConfig()
	f.withGrid()
	f.withFidelity()
	f.withCSV()
	f.withMaxWall()
	progress := f.Bool("progress", false, "report each completed point on stderr")
	if code, ok := f.parse(args, true); !ok {
		return code
	}
	grid, err := experiments.SweepGrid(f.from, f.to, f.step)
	if err != nil {
		return f.fail(cli.ExitUsage, "%v", err)
	}
	wd := cli.StartWatchdog(f.maxWall)
	t := experiments.SweepTable(f.config)
	mod := func(s *sim.Sim) error { return config.ApplyFidelity(s, f.over.Fidelity, f.over.SampleRate) }
	for i, qps := range grid {
		if wd.Interrupted() {
			break
		}
		row, err := experiments.SweepRow(f.config, qps, mod)
		if err != nil {
			return f.fail(cli.ExitPartial, "%v", err)
		}
		// A signal mid-run stops the simulation early; that point's row
		// reflects a truncated window, so drop it and keep the clean rows.
		if wd.Interrupted() {
			break
		}
		t.Add(row...)
		if *progress {
			fmt.Fprintf(os.Stderr, "%s: point %d/%d (%.0f qps) done\n", f.Name(), i+1, len(grid), qps)
		}
	}
	if f.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	if wd.Interrupted() {
		return f.fail(cli.ExitPartial, "PARTIAL: interrupted (%s) after %d/%d points; rows printed are complete",
			wd.Reason(), len(t.Rows), len(grid))
	}
	return cli.ExitOK
}
