// Package chaos is µqSim's property-based fault-schedule explorer: a
// seeded generator composes randomized schedules from the full fault
// vocabulary (machine and instance crashes, DVFS degradation, partitions,
// gray links, correlated domain bursts, load steps) against a config
// directory, runs each scenario, and checks a battery of invariants —
// request conservation, post-run drain, same-seed fingerprint determinism,
// and recovery properties (goodput and tail latency return to
// baseline after the last fault heals; no breaker, region, or ejection
// stays stuck). Violations are delta-debugged down to a minimal
// reproducing schedule and emitted as replayable faults.json + seed
// artifacts, so every chaos finding becomes a committed regression test.
//
// Everything is deterministic: the same master seed explores the same
// scenarios, and a corpus entry replays bit-identically (same fingerprint,
// same violation) on any machine.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"uqsim/internal/config"
	"uqsim/internal/job"
	"uqsim/internal/pool"
	"uqsim/internal/rng"
	"uqsim/internal/stats"
)

// ErrInterrupted reports that the harness's context was done and stopped a
// simulation; the partial results are not trustworthy and the search loop
// winds down, keeping whatever corpus it already flushed.
var ErrInterrupted = errors.New("chaos: interrupted")

// Options configures a chaos search.
type Options struct {
	// ConfigDir is the config directory scenarios run against. Closed-loop
	// clients are rejected: they never drain, so the invariants are
	// undefined.
	ConfigDir string
	// Seed drives the whole search: scenario generation and per-trial
	// simulation seeds all derive from it.
	Seed uint64
	// Trials bounds the number of scenarios explored.
	Trials int
	// CorpusDir receives one replayable artifact directory per finding
	// (faults.json + meta.json); empty disables artifact writing.
	CorpusDir string
	// MaxActions bounds the generated schedule size (default 6 actions;
	// an action is one self-healing fault plus its heal events).
	MaxActions int
	// GoodputFrac is the recovery invariant's floor: post-heal goodput
	// below this fraction of the no-fault baseline is a violation
	// (default 0.5).
	GoodputFrac float64
	// P99Factor and P99SlackMs bound post-heal tail latency: p99 above
	// baseline·factor + slack is a violation (defaults 3 and 20ms).
	P99Factor  float64
	P99SlackMs float64
	// Fidelity selects the fidelity every scenario runs at: "" or "full"
	// for pure DES, "hybrid" for sampled-foreground + fluid-background
	// (as config.Overrides.Fidelity). Hybrid mode additionally checks the
	// cross-fidelity invariant: a sample-rate-1.0 hybrid run must stay
	// bit-identical to full DES under every generated fault schedule.
	Fidelity string
	// SampleRate overrides the hybrid foreground sample rate (default
	// 0.01 when Fidelity is "hybrid").
	SampleRate float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Trials <= 0 {
		out.Trials = 50
	}
	if out.MaxActions <= 0 {
		out.MaxActions = 6
	}
	if out.GoodputFrac <= 0 {
		out.GoodputFrac = 0.5
	}
	if out.P99Factor <= 0 {
		out.P99Factor = 3
	}
	if out.P99SlackMs <= 0 {
		out.P99SlackMs = 20
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Violation is one failed invariant.
type Violation struct {
	// ID names the invariant: conservation, drain, stuck-breaker,
	// lost-region, stuck-ejection, recovery-goodput, recovery-p99, or
	// determinism.
	ID string
	// Detail is the human-readable evidence.
	Detail string
}

func (v *Violation) String() string { return v.ID + ": " + v.Detail }

// Finding is one violation discovered by the search, already shrunk.
type Finding struct {
	Trial     int
	Seed      uint64
	Violation string
	Detail    string
	// Scenario is the minimal reproducing schedule.
	Scenario Scenario
	// EventsBefore and Events count the schedule's fault events before
	// and after shrinking.
	EventsBefore int
	Events       int
	// Fingerprint is the sequential run's report fingerprint — what a
	// replay must reproduce bit-for-bit.
	Fingerprint string
	// Dir is the corpus artifact directory ("" when no corpus is kept).
	Dir string
}

// Result summarizes one search.
type Result struct {
	Trials      int
	Findings    []Finding
	Interrupted bool
}

// Harness holds everything needed to run scenarios against one config
// directory: its documents, the decoded base faults file, and the
// extracted world model the generator draws from. Every simulation it
// runs is bound to ctx, so a done ctx stops the harness's work. Verify
// and Shrink share the harness's baseline memo, so one goroutine calls
// them at a time; Trial works on a copy and is safe to call concurrently.
type Harness struct {
	ctx        context.Context
	opts       Options
	dir        *config.Dir
	baseFaults *config.FaultsFile
	world      world
	// horizonS is the run's warmup plus its measured window in seconds;
	// generated fault times are fractions of it.
	horizonS float64

	// baselines memoizes no-fault baseline runs keyed by (seed,
	// recovery-window start): shrink probes share them. A trial keeps its
	// own: trial seeds differ, so trials would share no entry.
	baselines map[[2]uint64]*windowStats
}

// world is the generator's view of the config: what exists to break.
type world struct {
	machines     []string
	freqMachines []freqMachine
	domains      []string
	domainSize   map[string]int
	services     []svcInfo
}

type freqMachine struct {
	name     string
	min, max float64
}

type svcInfo struct {
	name      string
	instances int
}

// windowStats are the recovery-window measurements of one run.
type windowStats struct {
	good uint64
	hist *stats.LatencyHist
}

// NewHarness loads dir — so it rejects exactly what `uqsim run` rejects —
// and builds the world model from the assembled simulation. opts.ConfigDir
// only names dir in messages. The harness's runs are bound to ctx: once it
// is done they stop and report ErrInterrupted.
func NewHarness(ctx context.Context, dir *config.Dir, opts Options) (*Harness, error) {
	o := opts.withDefaults()
	setup, err := dir.Load(config.Overrides{})
	if err != nil {
		return nil, err
	}
	s := setup.Sim
	if s.Client().ClosedUsers > 0 {
		return nil, fmt.Errorf("chaos: %s uses a closed-loop client, which never drains; chaos search needs an open-loop config", o.ConfigDir)
	}

	h := &Harness{
		ctx:        ctx,
		opts:       o,
		dir:        dir,
		baseFaults: setup.Faults,
		horizonS:   (setup.Warmup + setup.Duration).Seconds(),
		baselines:  make(map[[2]uint64]*windowStats),
	}
	h.world.domainSize = make(map[string]int)
	for _, m := range s.Cluster().Machines() {
		h.world.machines = append(h.world.machines, m.Name)
		if m.Freq.MaxMHz > 0 {
			h.world.freqMachines = append(h.world.freqMachines, freqMachine{
				name: m.Name, min: m.Freq.MinMHz, max: m.Freq.MaxMHz,
			})
		}
	}
	for _, d := range s.Domains() {
		h.world.domains = append(h.world.domains, d.Name)
		h.world.domainSize[d.Name] = len(d.Machines)
	}
	for _, d := range s.Deployments() {
		h.world.services = append(h.world.services, svcInfo{name: d.Name, instances: len(d.Instances)})
	}
	return h, nil
}

// TrialResult is the outcome of one independent trial: either the
// invariants held (Finding nil) or a shrunk, replayable violation. A
// trial is a pure function of the harness options and the trial index, so
// trials can run in any order, side by side: Run and the experiment farm
// both run them on a pool and get the corpus a serial search writes.
type TrialResult struct {
	Trial int
	// Events is the explored schedule's fault-event count (pre-shrink).
	Events int
	// Finding is nil when every invariant held.
	Finding *Finding
	// Entry is the portable corpus artifact for Finding (nil when ok).
	Entry *Entry
}

// Trial generates, verifies, and (on violation) shrinks the trial'th
// scenario of the search seeded by the harness options, every run bound
// to ctx. It works on a copy of the harness with its own baseline memo, so
// trials may run concurrently. It never touches the corpus directory; use
// ArchiveEntry (or Run, which does both) to persist the artifact.
func (h *Harness) Trial(ctx context.Context, trial int) (*TrialResult, error) {
	t := *h
	t.ctx, t.baselines = ctx, make(map[[2]uint64]*windowStats)
	child := rng.NewSplitter(t.opts.Seed).Child("chaos", fmt.Sprint(trial))
	sc := t.Generate(child.Stream("schedule"), child.Stream("seed").Uint64())
	tr := &TrialResult{Trial: trial, Events: sc.EventCount()}
	v, _, err := t.Verify(sc)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return tr, nil
	}
	f, faultsJSON, err := t.shrinkFinding(trial, sc, v)
	if err != nil {
		return nil, err
	}
	tr.Finding = f
	tr.Entry, err = findingEntry(f, faultsJSON)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// Run explores opts.Trials scenarios side by side on
// runtime.GOMAXPROCS(0) goroutines, shrinking and archiving every
// violation found, until ctx is done. Progress lines and corpus entries
// come out in trial order, so the output is the same at any width. This
// is the `uqsim chaos` entry point.
func Run(ctx context.Context, opts Options) (*Result, error) {
	dir, err := config.ReadDir(opts.ConfigDir)
	if err != nil {
		return nil, err
	}
	h, err := NewHarness(ctx, dir, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	logf := h.opts.Logf
	err = pool.Run(ctx, runtime.GOMAXPROCS(0), h.opts.Trials, h.Trial, func(trial int, tr *TrialResult) error {
		res.Trials++
		f := tr.Finding
		if f == nil {
			logf("trial %d: %d events ok", trial, tr.Events)
			return nil
		}
		logf("trial %d (seed %d): VIOLATION %s — shrinking %d events", trial, f.Seed, f.Violation, f.EventsBefore)
		if h.opts.CorpusDir != "" {
			dir, err := ArchiveEntry(h.opts.CorpusDir, tr.Entry)
			if err != nil {
				return err
			}
			f.Dir = dir
		}
		res.Findings = append(res.Findings, *f)
		logf("trial %d: shrunk to %d events (%s), archived %s", trial, f.Events, f.Violation, f.Dir)
		return nil
	})
	res.Interrupted = ctx.Err() != nil
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return res, err
	}
	return res, nil
}

// shrinkFinding reduces a violating scenario to its minimal form,
// re-verifies it, and materializes the minimal fault plan.
func (h *Harness) shrinkFinding(trial int, sc Scenario, v *Violation) (*Finding, []byte, error) {
	min, err := h.Shrink(sc, v.ID)
	if err != nil {
		return nil, nil, err
	}
	minV, fp, err := h.Verify(min)
	if err != nil {
		return nil, nil, err
	}
	if minV == nil || minV.ID != v.ID {
		// Shrinking never leaves a non-reproducing scenario: ddmin only
		// commits subsets that reproduce. A mismatch here is a harness bug.
		return nil, nil, fmt.Errorf("chaos: shrunk scenario no longer reproduces %s", v.ID)
	}
	f := &Finding{
		Trial:        trial,
		Seed:         min.Seed,
		Violation:    minV.ID,
		Detail:       minV.Detail,
		Scenario:     min,
		EventsBefore: sc.EventCount(),
		Events:       min.EventCount(),
		Fingerprint:  fp,
	}
	faultsJSON, _, err := h.Materialize(min)
	if err != nil {
		return nil, nil, err
	}
	return f, faultsJSON, nil
}

// goodCompletion reports whether a finished request counts toward
// recovery-window goodput: delivered within the client's patience.
func goodCompletion(req *job.Request) bool {
	return req.Done() && !req.Failed && !req.TimedOut
}

// conservationViolation reports a failed validate.Conservation as a chaos
// violation.
func conservationViolation(err error) *Violation {
	return &Violation{ID: "conservation", Detail: err.Error()}
}
