package farm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"uqsim/internal/chaos"
	"uqsim/internal/config"
	"uqsim/internal/experiments"
	"uqsim/internal/pool"
)

// Options configures a campaign run.
type Options struct {
	// Spool is the durable journal directory (required).
	Spool string
	// JobTimeout bounds one job's wall-clock time (default 5m): a job
	// still running past it is stopped and quarantined.
	JobTimeout time.Duration
	// Resume reopens a spool that already journals this campaign and
	// finishes the remaining jobs.
	Resume bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Summary is the accounting of one campaign run.
type Summary struct {
	// Jobs is the campaign size; Skipped were already journaled when the
	// run started (resume); Committed and Quarantined were journaled by
	// this run.
	Jobs, Skipped, Committed, Quarantined int
	// Violations counts chaos-trial results that carried a finding.
	Violations  int
	Interrupted bool
}

// jobFunc runs one job to its result.
type jobFunc func(context.Context, JobSpec) (*Result, error)

// Run executes campaign c: it opens (or resumes) the spool and runs every
// job the journal does not hold yet in this process, side by side on
// runtime.GOMAXPROCS(0) goroutines, with one Executor for the campaign.
// Each job's outcome is journaled as the job finishes. A job that errs,
// panics or overruns JobTimeout is quarantined at once: it runs in-process
// and deterministically, so a retry would fail the same way. Run returns
// once every job is journaled, or once ctx is done: then jobs still
// running are stopped, journal nothing, and Interrupted is set.
func Run(ctx context.Context, o Options, c *Campaign) (*Summary, error) {
	exec, err := NewExecutor(c.ConfigDir)
	if err != nil {
		return nil, err
	}
	return run(ctx, o, c, exec.Execute)
}

func run(ctx context.Context, o Options, c *Campaign, job jobFunc) (*Summary, error) {
	if o.Spool == "" {
		return nil, fmt.Errorf("farm: Options.Spool is required")
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 5 * time.Minute
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sp, err := OpenSpool(o.Spool, c, o.Resume)
	if err != nil {
		return nil, err
	}
	j, err := sp.read()
	if err != nil {
		return nil, err
	}
	sum := &Summary{Jobs: len(j.jobs), Skipped: len(j.committed) + len(j.quarantined)}
	for _, r := range j.committed {
		if r.Chaos != nil && r.Chaos.Violation != "" {
			sum.Violations++
		}
	}
	var todo []JobSpec
	for _, job := range j.jobs {
		if hash := job.Hash(); j.committed[hash] == nil && j.quarantined[hash] == nil {
			todo = append(todo, job)
		}
	}
	if len(todo) == 0 {
		logf("farm: nothing to do: %d/%d jobs already journaled", sum.Skipped, sum.Jobs)
		return sum, nil
	}
	width := runtime.GOMAXPROCS(0)
	logf("farm: %d jobs on %d goroutines (%d already journaled)", len(todo), min(width, len(todo)), sum.Skipped)

	err = pool.Run(ctx, width, len(todo), func(ctx context.Context, i int) (outcome, error) {
		return runJob(ctx, sp, todo[i], o.JobTimeout, job)
	}, func(_ int, out outcome) error {
		switch {
		case out.quarantined != nil:
			sum.Quarantined++
			logf("farm: QUARANTINED %s: %s (replay it with -replay %s)",
				out.quarantined.Job.Key(), out.quarantined.Failures[0].Reason, out.quarantined.Hash)
		case out.result != nil:
			sum.Committed++
			if ch := out.result.Chaos; ch != nil && ch.Violation != "" {
				sum.Violations++
				logf("farm: %s: VIOLATION %s (shrunk to %d events)", out.result.Job.Key(), ch.Violation, ch.EventsAfter)
			} else {
				logf("farm: %s committed (%d/%d)", out.result.Job.Key(), sum.Skipped+sum.Committed, sum.Jobs)
			}
		}
		return nil
	})
	if err != nil {
		return sum, err
	}
	if ctx.Err() != nil {
		sum.Interrupted = true
		logf("farm: interrupted with %d jobs unfinished; the spool resumes them", len(todo)-sum.Committed-sum.Quarantined)
	}
	return sum, nil
}

// outcome is what one job left in the journal: its result, its
// quarantine entry, or neither when the campaign was interrupted first.
type outcome struct {
	result      *Result
	quarantined *QuarantineEntry
}

// runJob runs spec under its own deadline and journals the outcome. It
// journals nothing once ctx is done, because the run may have been cut
// short; a resumed campaign runs the job again. Only a journal write
// error is returned: it ends the campaign.
func runJob(ctx context.Context, sp *Spool, spec JobSpec, timeout time.Duration, job jobFunc) (outcome, error) {
	if ctx.Err() != nil {
		return outcome{}, nil
	}
	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := recovered(jctx, spec, job)
	var reason string
	switch {
	case ctx.Err() != nil:
		return outcome{}, nil
	case jctx.Err() != nil:
		reason = fmt.Sprintf("job %s exceeded its %v wall-clock budget", spec.Key(), timeout)
	case err != nil:
		reason = "job error: " + err.Error()
	default:
		_, err := sp.CommitResult(res)
		return outcome{result: res}, err
	}
	q := &QuarantineEntry{Hash: spec.Hash(), Job: spec, Failures: []FailureRecord{{Attempt: 1, Reason: reason}}}
	return outcome{quarantined: q}, sp.Quarantine(q)
}

// recovered runs job, turning a panic into an error.
func recovered(ctx context.Context, spec JobSpec, job jobFunc) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return job(ctx, spec)
}

// Executor runs job specs in-process: the campaign's jobs side by side,
// and -replay's single spec.
type Executor struct {
	ConfigDir string
	dir       *config.Dir
	hash      string
	// chaos harnesses are cached per (seed, maxActions): every trial of a
	// campaign shares one, and building it loads the config set.
	mu        sync.Mutex
	harnesses map[[2]uint64]*chaos.Harness
}

// NewExecutor reads the configuration once and hashes it; every job is
// checked against the hash, so a spec journaled for different config
// bytes is refused, and every job runs the bytes that were hashed, so an
// edit to the directory after the campaign started changes nothing.
func NewExecutor(configDir string) (*Executor, error) {
	dir, err := config.ReadDir(configDir)
	if err != nil {
		return nil, err
	}
	return &Executor{
		ConfigDir: configDir,
		dir:       dir,
		hash:      dir.Hash(),
		harnesses: make(map[[2]uint64]*chaos.Harness),
	}, nil
}

// Execute runs one job to its committed Result, its runs bound to ctx. It
// is safe to call concurrently.
func (e *Executor) Execute(ctx context.Context, spec JobSpec) (*Result, error) {
	if spec.ConfigHash != e.hash {
		return nil, fmt.Errorf("farm: job %s was journaled for config %s but %s hashes to %s (configuration drifted mid-campaign?)",
			spec.Key(), spec.ConfigHash, e.ConfigDir, e.hash)
	}
	res := &Result{Hash: spec.Hash(), Job: spec}
	switch spec.Kind {
	case KindSweep:
		row, err := experiments.SweepRow(ctx, e.dir, spec.QPS, config.Overrides{})
		if err != nil {
			return nil, err
		}
		res.Row = row
	case KindChaos:
		h, err := e.harness(spec)
		if err != nil {
			return nil, err
		}
		tr, err := h.Trial(ctx, spec.Index)
		if err != nil {
			return nil, err
		}
		out := &ChaosOutcome{Events: tr.Events}
		if tr.Finding != nil {
			out.Violation = tr.Finding.Violation
			out.Detail = tr.Finding.Detail
			out.EventsAfter = tr.Finding.Events
			out.Entry = tr.Entry
		}
		res.Chaos = out
	default:
		return nil, fmt.Errorf("farm: unknown job kind %q", spec.Kind)
	}
	return res, nil
}

func (e *Executor) harness(spec JobSpec) (*chaos.Harness, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := [2]uint64{spec.Seed, uint64(spec.MaxActions)}
	if h, ok := e.harnesses[key]; ok {
		return h, nil
	}
	// Trial binds each trial's runs to its own context.
	h, err := chaos.NewHarness(context.Background(), e.dir, chaos.Options{
		ConfigDir:  e.ConfigDir,
		Seed:       spec.Seed,
		MaxActions: spec.MaxActions,
	})
	if err != nil {
		return nil, err
	}
	e.harnesses[key] = h
	return h, nil
}
