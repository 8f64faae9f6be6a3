package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"uqsim/internal/cli"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
	"uqsim/internal/pool"
)

// sweepCmd measures the load–latency curve of a config directory: it
// re-runs the scenario across a grid of offered loads and prints one row
// per load (the data behind every figure in the paper's validation). The
// points run side by side on runtime.GOMAXPROCS(0) goroutines and their
// rows print in grid order, so the output is the same at any width.
// `uqsim farm` runs the same points with a journal that survives a kill;
// both produce byte-identical rows. An interrupted sweep prints only the
// rows of the points that finished before the first one it cut short.
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
	dir, err := config.ReadDir(f.config)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	ctx := cli.StartWatchdog(f.maxWall)
	t := experiments.SweepTable(f.config)
	err = pool.Run(ctx, runtime.GOMAXPROCS(0), len(grid), func(ctx context.Context, i int) ([]string, error) {
		row, err := experiments.SweepRow(ctx, dir, grid[i], f.over)
		// A signal mid-run stops the simulation early; that point's row
		// reflects a truncated window, so drop it and keep the clean rows.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return row, err
	}, func(i int, row []string) error {
		t.Add(row...)
		if *progress {
			fmt.Fprintf(os.Stderr, "%s: point %d/%d (%.0f qps) done\n", f.Name(), i+1, len(grid), grid[i])
		}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	if f.csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
	if ctx.Err() != nil {
		return f.fail(cli.ExitPartial, "PARTIAL: interrupted (%v) after %d/%d points; rows printed are complete",
			context.Cause(ctx), len(t.Rows), len(grid))
	}
	return cli.ExitOK
}
