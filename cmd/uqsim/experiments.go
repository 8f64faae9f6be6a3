package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"uqsim/internal/atomicfile"
	"uqsim/internal/cli"
	"uqsim/internal/experiments"
)

// experimentsCmd regenerates the paper's evaluation: every figure and
// table has a named experiment producing the rows the paper reports. The
// text output ends each table with what its cells cost: cells, events,
// run wall and events/s.
//
//	uqsim experiments -list
//	uqsim experiments fig8 table3
//	uqsim experiments -scale 0.2 all
//	uqsim experiments -csv -out results/ all
//
// An interrupted experiment is still printed and written, marked partial,
// and later experiments are skipped. CSVs already written are complete
// files.
func experimentsCmd(args []string) int {
	f := newFlags("experiments")
	f.withSeed(42)
	f.withCSV()
	f.withMaxWall()
	list := f.Bool("list", false, "list available experiments and exit")
	scale := f.Float64("scale", 1.0, "shrink measurement windows and sweeps (0 < scale <= 1)")
	out := f.String("out", "", "also write one CSV file per experiment into this directory")
	if code, ok := f.parse(args, false); !ok {
		return code
	}
	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return cli.ExitOK
	}
	ids := f.Args()
	if len(ids) == 0 {
		return f.fail(cli.ExitUsage, "name experiments to run, or 'all' (see -list)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.Names()
	}
	ctx := cli.StartWatchdog(f.maxWall)
	opts := experiments.Opts{Seed: f.seed, Scale: *scale}
	for _, id := range ids {
		t, err := experiments.Run(ctx, id, opts)
		if err != nil {
			// An interrupted simulation can surface as an experiment error
			// (e.g. an invariant over a half-run window); report the
			// interruption rather than the symptom.
			if ctx.Err() != nil {
				return f.fail(cli.ExitPartial, "interrupted (%v) during %s", context.Cause(ctx), id)
			}
			return f.fail(cli.ExitPartial, "%s: %v", id, err)
		}
		if ctx.Err() != nil {
			t.Note = appendNote(t.Note, fmt.Sprint("PARTIAL: ", context.Cause(ctx)))
		}
		if f.csv {
			fmt.Print(t.CSV())
			fmt.Println()
		} else {
			fmt.Println(t.String())
			fmt.Printf("(%s: %v)\n\n", id, t.Cost)
		}
		if *out != "" {
			err := os.MkdirAll(*out, 0o755)
			if err == nil {
				err = atomicfile.Write(filepath.Join(*out, id+".csv"), []byte(t.CSV()))
			}
			if err != nil {
				return f.fail(cli.ExitPartial, "%v", err)
			}
		}
		if ctx.Err() != nil {
			return f.fail(cli.ExitPartial, "interrupted (%v); %s is partial, later experiments skipped", context.Cause(ctx), id)
		}
	}
	return cli.ExitOK
}

func appendNote(note, extra string) string {
	if note == "" {
		return extra
	}
	return note + "; " + extra
}
