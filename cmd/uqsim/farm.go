package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uqsim/internal/cli"
	"uqsim/internal/farm"
)

// farmFlags are the farm's own flags on top of the shared ones.
type farmFlags struct {
	*flags
	kind, spool, out, corpus, replay string
	jobTimeout                       time.Duration
	resume, audit                    bool
}

// farmCmd runs experiment campaigns — load sweeps and chaos searches —
// with a durable journal. Jobs are content-hashed, run side by side in
// this process on runtime.GOMAXPROCS(0) goroutines, and journaled to the
// spool as each finishes, so an interrupt or a kill of the process loses
// at most the jobs that were running; an interrupted campaign finishes
// with -resume, and the merged output is byte-identical to a serial run.
//
//	uqsim farm -config configs/metastable -kind chaos -trials 200 -spool spool/
//	uqsim farm -spool spool/ -resume -config configs/twotier -from 5000 -to 80000 -step 5000
//	uqsim farm -spool spool/ -audit
//	uqsim farm -config configs/twotier -replay spool/quarantine/<hash>.json
//
// A job that errs, panics or runs past -job-timeout is quarantined at
// once. Exit 3 means completed with findings: chaos violations or
// quarantined jobs.
func farmCmd(args []string) int {
	f := &farmFlags{flags: newFlags("farm")}
	f.withConfig()
	f.withGrid()
	f.withSeed(1)
	f.withChaosSearch()
	f.withQuiet()
	f.withMaxWall()
	f.StringVar(&f.kind, "kind", "sweep", "campaign kind: sweep or chaos")
	f.StringVar(&f.spool, "spool", "", "durable spool directory journaling the campaign (required)")
	f.StringVar(&f.out, "out", "", "merged CSV path (default <spool>/merged.csv)")
	f.StringVar(&f.corpus, "corpus", "", "chaos: merged corpus directory (default <spool>/corpus)")
	f.BoolVar(&f.resume, "resume", false, "finish the campaign already journaled in -spool")
	f.DurationVar(&f.jobTimeout, "job-timeout", 5*time.Minute, "per-job wall-clock budget: stop and quarantine a job that runs longer than this")
	f.BoolVar(&f.audit, "audit", false, "audit the spool journal (exactly-once accounting) and exit")
	f.StringVar(&f.replay, "replay", "", "re-run one journaled job (a spool results/ or quarantine/ JSON file) in-process")
	if code, ok := f.parse(args, false); !ok {
		return code
	}
	switch {
	case f.audit:
		return farmAudit(f)
	case f.replay != "":
		return farmReplay(f)
	}
	return farmCampaign(f)
}

func farmAudit(f *farmFlags) int {
	if f.spool == "" {
		return f.fail(cli.ExitUsage, "-audit needs -spool")
	}
	rep, err := farm.Audit(f.spool)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	fmt.Println(rep)
	switch {
	// Conflicting or orphaned journal entries break the exactly-once
	// invariant: that is a finding. Jobs that are merely missing make the
	// campaign incomplete — finishable, not broken.
	case len(rep.Conflicts) > 0 || len(rep.Orphans) > 0:
		return cli.ExitFindings
	case !rep.Complete():
		fmt.Println("campaign incomplete; finish it with -resume")
		return cli.ExitPartial
	}
	return cli.ExitOK
}

func farmReplay(f *farmFlags) int {
	if f.config == "" {
		return f.fail(cli.ExitUsage, "-replay needs -config")
	}
	data, err := os.ReadFile(f.replay)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	// The file is either a committed result or a quarantine entry; both
	// embed the job spec.
	var spec farm.JobSpec
	if q, err := farm.DecodeQuarantine(data); err == nil {
		spec = q.Job
		fmt.Printf("replaying quarantined job %s (%d recorded failures)\n", spec.Key(), len(q.Failures))
		for _, fr := range q.Failures {
			fmt.Printf("  attempt %d: %s\n", fr.Attempt, fr.Reason)
		}
	} else if r, err := farm.DecodeResult(data); err == nil {
		spec = r.Job
		fmt.Printf("replaying committed job %s\n", spec.Key())
	} else {
		return f.fail(cli.ExitPartial, "%s is neither a result nor a quarantine entry", f.replay)
	}
	exec, err := farm.NewExecutor(f.config)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	res, err := exec.Execute(context.Background(), spec)
	if err != nil {
		return f.fail(cli.ExitPartial, "replay failed: %v", err)
	}
	switch {
	case res.Row != nil:
		fmt.Printf("row: %v\n", res.Row)
	case res.Chaos != nil && res.Chaos.Violation != "":
		fmt.Printf("violation: %s (%s)\n", res.Chaos.Violation, res.Chaos.Detail)
		return cli.ExitFindings
	case res.Chaos != nil:
		fmt.Printf("ok: %d events, no violation\n", res.Chaos.Events)
	}
	return cli.ExitOK
}

func farmCampaign(f *farmFlags) int {
	if f.config == "" || f.spool == "" {
		f.Usage()
		return f.fail(cli.ExitUsage, "-config and -spool are required")
	}
	var c *farm.Campaign
	var err error
	switch f.kind {
	case farm.KindSweep:
		c, err = farm.NewSweepCampaign(f.config, f.from, f.to, f.step)
	case farm.KindChaos:
		c, err = farm.NewChaosCampaign(f.config, f.seed, f.trials, f.maxActions)
	default:
		return f.fail(cli.ExitUsage, "unknown -kind %q (sweep or chaos)", f.kind)
	}
	if err != nil {
		return f.fail(cli.ExitUsage, "%v", err)
	}

	ctx := cli.StartWatchdog(f.maxWall)
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if f.quiet {
		logf = nil
	}
	start := time.Now()
	sum, err := farm.Run(ctx, farm.Options{
		Spool:      f.spool,
		JobTimeout: f.jobTimeout,
		Resume:     f.resume,
		Logf:       logf,
	}, c)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}

	m, err := farm.Merge(f.spool)
	if err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	outPath := f.out
	if outPath == "" {
		outPath = filepath.Join(f.spool, "merged.csv")
	}
	if err := m.WriteCSV(outPath); err != nil {
		return f.fail(cli.ExitPartial, "%v", err)
	}
	if c.Kind == farm.KindChaos && len(m.Entries) > 0 {
		corpusDir := f.corpus
		if corpusDir == "" {
			corpusDir = filepath.Join(f.spool, "corpus")
		}
		if err := m.WriteCorpus(corpusDir); err != nil {
			return f.fail(cli.ExitPartial, "%v", err)
		}
	}
	fmt.Printf("\n%d jobs: %d committed (%d this run), %d quarantined (%d this run) in %v\n",
		sum.Jobs, sum.Jobs-len(m.Missing)-len(m.Quarantined), sum.Committed,
		len(m.Quarantined), sum.Quarantined, time.Since(start).Round(time.Millisecond))
	fmt.Printf("merged %s -> %s\n", f.spool, outPath)

	if sum.Interrupted || ctx.Err() != nil {
		return f.fail(cli.ExitPartial, "PARTIAL: interrupted (%v) with %d jobs unfinished; rerun with -resume", context.Cause(ctx), len(m.Missing))
	}
	if len(m.Quarantined) > 0 || m.Violations > 0 {
		fmt.Printf("findings: %d chaos violations, %d quarantined jobs\n", m.Violations, len(m.Quarantined))
		return cli.ExitFindings
	}
	return cli.ExitOK
}
