package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
	"uqsim/internal/validate"
)

// processStart is as close to the child's start as Go code gets; the
// warm-up pass is timed from here.
var processStart = time.Now()

const (
	// minReps is the fewest timed reps (or traced pairs) a run makes,
	// whatever -seconds says. The accuracy figure reads exactly these reps,
	// so it does not depend on the host's speed.
	minReps = 10
	// drainLimit bounds the post-horizon drain in simulated time.
	drainLimit = 60 * des.Second
)

// options are the settings of one workload run.
type options struct {
	seed    uint64
	seconds float64 // host seconds spent on timed reps
	traced  bool
	scale   float64 // simulated window multiplier; 1 outside tests
	tmp     string  // scratch directory for generated inputs
}

// repResult is what one rep measured.
type repResult struct {
	rep         int
	seed        uint64
	wallMs      float64 // Sim.Run only
	cpuMs       float64 // user+sys over Sim.Run, all threads
	simS        float64 // warm-up + measured simulated seconds
	mallocs     uint64
	allocBytes  uint64
	requests    uint64 // DES completions + fluid background completions
	events      uint64
	pendingEnd  int
	fingerprint string
	report      *sim.Report
	control     control.Stats
	profile     []byte // CPU profile of Run, traced reps only
}

// repSeed is the simulation seed of timed rep n of benchmark seed s; the
// warm-up passes reuse rep 1's.
func repSeed(s uint64, n int) uint64 { return s*1000 + uint64(n) }

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runRep builds a fresh simulation, runs it for the workload's window and
// checks it. tr non-nil records spans and wraps Run in a CPU profile. The
// returned failures are correctness violations; err is a harness fault.
func runRep(w *workload, o options, rep int, tr *tracer) (res *repResult, failures []string, err error) {
	seed := repSeed(o.seed, rep)
	if tr != nil {
		tr.rep = rep
	}
	defer tr.span("rep")()
	res = &repResult{rep: rep, seed: seed}

	dir := filepath.Join(o.tmp, fmt.Sprintf("%s-rep%d", w.name, rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	endBuild := tr.span("build")
	b, err := w.build(w, buildInput{seed: o.seed, repSeed: seed, scale: o.scale, dir: dir, tr: tr})
	endBuild()
	if err != nil {
		return res, []string{fmt.Sprintf("build: %v", err)}, nil
	}
	horizon := b.warmup + b.duration
	res.simS = horizon.Seconds()

	// Each rep starts from a collected heap, so one rep's garbage is not
	// another's GC work.
	runtime.GC()
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, nil, err
	}
	events0 := b.sim.Engine().Processed()
	endRun := tr.span("sim.run")
	t0 := time.Now()
	report, runErr := b.sim.Run(b.warmup, b.duration)
	wall := time.Since(t0)
	endRun()
	cpu1, err := cpuTime()
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	if tr != nil {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	if runErr != nil {
		return res, []string{fmt.Sprintf("Run: %v", runErr)}, nil
	}
	res.wallMs = float64(wall.Nanoseconds()) / 1e6
	res.cpuMs = float64((cpu1 - cpu0).Nanoseconds()) / 1e6
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.events = b.sim.Engine().Processed() - events0
	res.pendingEnd = b.sim.Engine().Pending()
	res.report = report
	res.requests = report.Completions + report.BackgroundCompletions
	if b.plane != nil {
		res.control = *b.plane.Stats()
	}

	defer tr.span("verify")()
	end := tr.span("validate.conservation")
	if err := validate.Conservation(report); err != nil {
		failures = append(failures, err.Error())
	}
	end()
	end = tr.span("validate.fingerprint")
	res.fingerprint = validate.Fingerprint(report)
	end()
	if res.requests == 0 {
		failures = append(failures, "no request completed")
	}
	end = tr.span("sim.drain_check")
	if err := drain(b, horizon); err != nil {
		failures = append(failures, err.Error())
	}
	end()
	return res, failures, nil
}

// drain runs the engine past the horizon until no request state is left.
// The client stopped when Run returned; the control plane is stopped here,
// or its heartbeats would tick for ever.
func drain(b *built, horizon des.Time) error {
	if b.plane != nil {
		b.plane.Stop()
	}
	// Rounds double from 10 ms: requests in flight at the horizon finish
	// within milliseconds, and running on costs host time (a retiring
	// session user's departure is O(population)).
	var err error
	for past := 10 * des.Millisecond; past <= drainLimit; past *= 2 {
		b.sim.Engine().RunUntil(horizon + past)
		if err = b.sim.VerifyDrained(); err == nil {
			return nil
		}
	}
	return err
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Name          string             `json:"name"`
	RunsAttempted int                `json:"runs_attempted"`
	RunsFailed    int                `json:"runs_failed"`
	Failures      []string           `json:"failures,omitempty"`
	Fingerprint   string             `json:"fingerprint"`
	Metrics       map[string]*metric `json:"metrics"`
	Spans         []span             `json:"spans,omitempty"`
}

// fail records a correctness violation of one rep.
func (r *workloadResult) fail(rep int, seed uint64, msgs []string) {
	if len(msgs) == 0 {
		return
	}
	r.RunsFailed++
	for _, m := range msgs {
		line := fmt.Sprintf("%s rep %d seed %d: %s", r.Name, rep, seed, m)
		r.Failures = append(r.Failures, line)
		fmt.Fprintln(os.Stderr, "FAIL", line)
	}
}

// runWorkload is one whole run of a workload: a warm-up pass, then timed
// reps for o.seconds of host time. Every rep is a fresh simulation of the
// same fixed simulated window, so per-rep counts compare exactly between
// commits however many reps fit.
func runWorkload(w *workload, o options) (*workloadResult, error) {
	out := &workloadResult{Name: w.name, Metrics: map[string]*metric{}}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	endWorkload := tr.span("workload")

	// The warm-up pass: inputs, build and a rep with timed rep 1's seed, so
	// its fingerprint must be rep 1's. It is timed from process start.
	warm, failures, err := runRep(w, o, 1, nil)
	if err != nil {
		return nil, err
	}
	out.RunsAttempted++
	out.fail(0, warm.seed, failures)
	warmFP := warm.fingerprint
	// A pass is everything a user waits for before a checked result:
	// inputs, build, one rep, its checks. The warm-up and every timed rep
	// are each one pass, so setup_s has as many samples as the run has reps.
	passS := []float64{time.Since(processStart).Seconds()}

	var plain, traced []*repResult
	merged := stats.NewLatencyHist()
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for rep := 1; rep <= minReps || time.Since(start) < budget; rep++ {
		t0 := time.Now()
		res, failures, err := runRep(w, o, rep, nil)
		if err != nil {
			return nil, err
		}
		passS = append(passS, time.Since(t0).Seconds())
		out.RunsAttempted++
		if rep == 1 && len(failures) == 0 && res.fingerprint != warmFP {
			failures = append(failures, fmt.Sprintf("same seed, different fingerprint:\n  warm-up: %s\n  rep 1:   %s", warmFP, res.fingerprint))
		}
		out.fail(rep, res.seed, failures)
		if len(failures) > 0 {
			continue
		}
		plain = append(plain, res)
		// The accuracy figure reads the first minReps reps only, so it
		// does not depend on how many reps the host had time for.
		if rep <= minReps {
			merged.Merge(res.report.Latency)
		}
		// Only rep 1's report is read again (the traced counts). Keeping
		// them all would grow the live heap by megabytes a rep, so a late
		// rep would see fewer collections than an early one.
		if rep > 1 {
			res.report = nil
		}
		if !o.traced {
			continue
		}
		// The traced twin of the rep just run: same seed, spans and a
		// CPU profile on. Its wall against the plain rep's is the
		// tracing overhead, and it must simulate the same thing.
		twin, failures, err := runRep(w, o, rep, tr)
		if err != nil {
			return nil, err
		}
		out.RunsAttempted++
		if len(failures) == 0 && twin.fingerprint != res.fingerprint {
			failures = append(failures, "traced rep's fingerprint differs from the untraced rep's")
		}
		out.fail(rep, twin.seed, failures)
		twin.report = nil
		if len(failures) == 0 {
			traced = append(traced, twin)
		}
	}
	endWorkload()
	if len(plain) == 0 {
		return out, nil // every rep failed; the failures are the result
	}
	out.Fingerprint = plain[0].fingerprint

	if o.traced {
		if err := perLayerMetrics(out, w, o.scale, plain, traced, merged, tr); err != nil {
			return nil, err
		}
		out.Spans = tr.spans
	} else {
		if err := endToEndMetrics(out, w, plain, merged, passS); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
