package main

import (
	"context"
	"fmt"
	"time"

	"uqsim/internal/chaos"
	"uqsim/internal/cli"
)

// chaosCmd explores randomized fault schedules against a config
// directory, checks every run against the simulator's invariants
// (conservation, drain, determinism, and post-heal recovery), and shrinks
// each violation to a minimal replayable repro in the corpus directory:
//
//	uqsim chaos -config configs/metastable -seed 7 -corpus corpus/
//	uqsim chaos -config configs/metastable -fidelity hybrid -sample-rate 0.2
//	uqsim chaos -config configs/metastable -replay configs/metastable/corpus/trial0000-recovery-goodput
//
// An interrupted search keeps the findings already shrunk (the corpus
// flush is atomic, meta.json last, so no half-written entry is ever
// picked up). Interruption exits 1 even when there are findings; a
// finished search with findings, or a replay mismatch, exits 3.
func chaosCmd(args []string) int {
	f := newFlags("chaos")
	f.withConfig()
	f.withSeed(1)
	f.withChaosSearch()
	f.withFidelity()
	f.withQuiet()
	f.withMaxWall()
	corpus := f.String("corpus", "", "directory for replayable repro artifacts (default <config>/corpus)")
	replay := f.String("replay", "", "replay one corpus entry directory instead of searching")
	if code, ok := f.parse(args, true); !ok {
		return code
	}
	ctx := cli.StartWatchdog(f.maxWall)
	if *replay != "" {
		return chaosReplay(ctx, f, *replay)
	}

	if *corpus == "" {
		*corpus = f.config + "/corpus"
	}
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	if f.quiet {
		logf = nil
	}
	start := time.Now()
	res, err := chaos.Run(ctx, chaos.Options{
		ConfigDir:  f.config,
		Seed:       f.seed,
		Trials:     f.trials,
		CorpusDir:  *corpus,
		MaxActions: f.maxActions,
		Fidelity:   f.over.Fidelity,
		SampleRate: f.over.SampleRate,
		Logf:       logf,
	})
	if err != nil && ctx.Err() != nil {
		return f.fail(cli.ExitPartial, "interrupted (%v)", context.Cause(ctx))
	}
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}

	fmt.Printf("\n%d/%d trials, %d finding(s) in %v\n",
		res.Trials, f.trials, len(res.Findings), time.Since(start).Round(time.Millisecond))
	for _, fd := range res.Findings {
		fmt.Printf("  trial %4d  %-17s %2d events (from %d)  %s\n",
			fd.Trial, fd.Violation, fd.Events, fd.EventsBefore, fd.Dir)
	}
	if res.Interrupted {
		return f.fail(cli.ExitPartial, "PARTIAL: interrupted (%v) after %d trials; corpus entries written so far are complete",
			context.Cause(ctx), res.Trials)
	}
	if len(res.Findings) > 0 {
		return cli.ExitFindings // distinct from interruption: the search itself succeeded
	}
	return cli.ExitOK
}

// chaosReplay re-runs one corpus entry and reports whether it still
// reproduces the recorded finding bit-for-bit.
func chaosReplay(ctx context.Context, f *flags, entry string) int {
	res, err := chaos.ReplayWith(ctx, f.config, entry, f.over.Fidelity, f.over.SampleRate)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	fmt.Printf("recorded: %s (%s)\n", res.Meta.Violation, res.Meta.Detail)
	if res.Violation == nil {
		fmt.Println("replayed: no violation")
	} else {
		fmt.Printf("replayed: %s (%s)\n", res.Violation.ID, res.Violation.Detail)
	}
	if res.Matches() {
		fmt.Println("MATCH: violation and fingerprint reproduce exactly")
		return cli.ExitOK
	}
	if res.Fingerprint != res.Meta.Fingerprint {
		fmt.Printf("fingerprint diverged:\n  recorded: %s\n  replayed: %s\n",
			res.Meta.Fingerprint, res.Fingerprint)
	}
	fmt.Println("MISMATCH: the archived finding no longer reproduces")
	return cli.ExitFindings
}
