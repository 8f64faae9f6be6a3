package farm

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"time"

	"uqsim/internal/rng"
)

// Options configures a dispatcher run.
type Options struct {
	// Spool is the durable journal directory (required).
	Spool string
	// Workers is the subprocess pool size (default 4).
	Workers int
	// WorkerArgv is the command line that starts one worker — typically
	// the farm binary itself with -worker (required).
	WorkerArgv []string
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the job is requeued and the worker presumed wedged (default 10s).
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to beat at; it must be
	// well under LeaseTTL (default LeaseTTL/5).
	Heartbeat time.Duration
	// JobTimeout is the per-job wall-clock watchdog: a job still running
	// past it is killed and requeued even if heartbeats keep arriving
	// (default 5m).
	JobTimeout time.Duration
	// MaxFailures quarantines a job after this many consecutive failed
	// attempts (default 3).
	MaxFailures int
	// Resume reopens a spool that already journals this campaign and
	// finishes the remaining jobs.
	Resume bool
	// KillWorkers > 0 turns the dispatcher's chaos monkey on: after each
	// of the first KillWorkers commits, one randomly chosen busy worker
	// is SIGKILLed mid-lease. The campaign must still complete with a
	// byte-identical merge — `make farm` smokes exactly this.
	KillWorkers int
	// Seed drives the chaos monkey's choice of victim and the respawn
	// jitter (default 1).
	Seed uint64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.LeaseTTL <= 0 {
		out.LeaseTTL = 10 * time.Second
	}
	if out.Heartbeat <= 0 {
		out.Heartbeat = out.LeaseTTL / 5
	}
	if out.JobTimeout <= 0 {
		out.JobTimeout = 5 * time.Minute
	}
	if out.MaxFailures <= 0 {
		out.MaxFailures = 3
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Summary is the accounting of one dispatcher run.
type Summary struct {
	// Jobs is the campaign size; Skipped were already journaled when the
	// run started (resume); Committed were committed by this run.
	Jobs, Skipped, Committed int
	// Duplicates counts completions dropped by the idempotent commit.
	Duplicates int
	// Requeues counts leases returned to the queue (crash, expiry, or
	// watchdog); Quarantined counts jobs withdrawn as poison.
	Requeues, Quarantined int
	// Respawns counts worker restarts; Kills counts chaos-monkey kills.
	Respawns, Kills int
	// Violations counts chaos-trial results that carried a finding.
	Violations  int
	Interrupted bool
}

// workerProc is one subprocess slot in the pool.
type workerProc struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	alive bool
	// closing marks a worker whose stdin we closed for retirement; its
	// exit is expected and must not trigger a respawn.
	closing bool
	// respawns counts consecutive crashes for the backoff; a committed
	// result resets it.
	respawns int
}

// event is one message into the dispatcher's single-threaded event loop.
type event struct {
	worker int
	msg    *workerMsg // nil for exit and spawn events
	exit   error      // exit reason (exit events only)
	kind   int
}

const (
	evMsg = iota
	evExit
	evSpawn // a backoff timer elapsed; respawn the worker slot
)

// Run executes campaign c: it opens (or resumes) the spool, leases jobs
// to a pool of worker subprocesses, and survives worker crashes, hangs,
// and kills without losing or double-counting a job. It returns once
// every job is committed or quarantined, or once ctx is done: then it
// stops leasing, kills the pool, and returns with Interrupted set.
func Run(ctx context.Context, o Options, c *Campaign) (*Summary, error) {
	opts := o.withDefaults()
	if opts.Spool == "" {
		return nil, fmt.Errorf("farm: Options.Spool is required")
	}
	if len(opts.WorkerArgv) == 0 {
		return nil, fmt.Errorf("farm: Options.WorkerArgv is required")
	}
	sp, err := OpenSpool(opts.Spool, c, opts.Resume)
	if err != nil {
		return nil, err
	}
	jobs, err := c.Jobs()
	if err != nil {
		return nil, err
	}
	done, err := sp.Committed()
	if err != nil {
		return nil, err
	}
	quarantined, err := sp.Quarantined()
	if err != nil {
		return nil, err
	}
	d := &dispatcher{
		opts:   opts,
		spool:  sp,
		queue:  newQueue(jobs, done, quarantined, opts.MaxFailures),
		events: make(chan event, 4*opts.Workers),
		jitter: rng.NewSplitter(opts.Seed).Stream("farm", "jitter"),
		monkey: rng.NewSplitter(opts.Seed).Stream("farm", "monkey"),
	}
	d.summary.Jobs = len(jobs)
	d.summary.Skipped = len(done) + len(quarantined)
	for _, r := range done {
		if r.Chaos != nil && r.Chaos.Violation != "" {
			d.summary.Violations++
		}
	}
	return d.run(ctx)
}

type dispatcher struct {
	opts    Options
	spool   *Spool
	queue   *queue
	events  chan event
	workers []*workerProc
	jitter  *rng.Source
	monkey  *rng.Source
	summary Summary
}

func (d *dispatcher) run(ctx context.Context) (*Summary, error) {
	if d.queue.idle() {
		d.opts.Logf("farm: nothing to do: %d/%d jobs already journaled", d.summary.Skipped, d.summary.Jobs)
		return &d.summary, nil
	}
	d.workers = make([]*workerProc, d.opts.Workers)
	for i := range d.workers {
		d.workers[i] = &workerProc{id: i}
		if err := d.spawn(d.workers[i]); err != nil {
			return &d.summary, err
		}
	}
	d.opts.Logf("farm: %d jobs across %d workers (%d already journaled)",
		d.queue.remaining(), d.opts.Workers, d.summary.Skipped)

	tick := time.NewTicker(d.leaseCheckInterval())
	defer tick.Stop()
	var fatal error
	for !d.queue.idle() {
		if ctx.Err() != nil {
			d.summary.Interrupted = true
			break
		}
		d.assign()
		select {
		case ev := <-d.events:
			if err := d.handle(ev); err != nil {
				fatal = err
			}
		case <-tick.C:
			d.reap(time.Now())
		case <-ctx.Done():
		}
		if fatal != nil {
			break
		}
	}

	// Retire the pool: close stdins so idle workers exit 0, kill the rest.
	for _, w := range d.workers {
		if w.alive {
			w.closing = true
			if w.stdin != nil {
				w.stdin.Close()
			}
			if d.summary.Interrupted || fatal != nil {
				w.cmd.Process.Kill()
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for alive := d.aliveCount(); alive > 0; alive = d.aliveCount() {
		select {
		case ev := <-d.events:
			if ev.kind == evExit {
				d.workers[ev.worker].alive = false
			}
		case <-deadline:
			for _, w := range d.workers {
				if w.alive {
					w.cmd.Process.Kill()
					w.alive = false
				}
			}
		}
	}
	if fatal != nil {
		return &d.summary, fatal
	}
	if d.summary.Interrupted {
		d.opts.Logf("farm: interrupted with %d jobs unfinished; the spool resumes them", d.queue.remaining())
	}
	return &d.summary, nil
}

func (d *dispatcher) leaseCheckInterval() time.Duration {
	iv := d.opts.LeaseTTL / 4
	if iv > time.Second {
		iv = time.Second
	}
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

func (d *dispatcher) aliveCount() int {
	n := 0
	for _, w := range d.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// spawn starts (or restarts) one worker subprocess and wires its stdout
// into the event loop.
func (d *dispatcher) spawn(w *workerProc) error {
	argv := d.opts.WorkerArgv
	cmd := exec.Command(argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("farm: spawning worker %d: %w", w.id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("farm: spawning worker %d: %w", w.id, err)
	}
	cmd.Stderr = nil // workers log nothing in normal operation
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("farm: spawning worker %d: %w", w.id, err)
	}
	w.cmd, w.stdin, w.alive, w.closing = cmd, stdin, true, false
	w.enc = json.NewEncoder(stdin)

	id := w.id
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var msg workerMsg
			if err := json.Unmarshal(line, &msg); err != nil {
				continue // a torn line from a dying worker; its exit follows
			}
			d.events <- event{worker: id, msg: &msg, kind: evMsg}
		}
		d.events <- event{worker: id, exit: cmd.Wait(), kind: evExit}
	}()
	return nil
}

// assign hands pending jobs to every idle live worker.
func (d *dispatcher) assign() {
	if !d.queue.hasPending() {
		return
	}
	now := time.Now()
	for _, w := range d.workers {
		if !w.alive || w.closing {
			continue
		}
		js := d.queue.lease(w.id, now, d.opts.LeaseTTL, d.opts.JobTimeout)
		if js == nil {
			continue
		}
		if err := w.enc.Encode(&dispatchMsg{Job: js.spec, Attempt: js.attempt}); err != nil {
			// The pipe is dead; the exit event will fail this lease and
			// respawn the worker.
			d.opts.Logf("farm: worker %d pipe closed mid-dispatch", w.id)
		}
	}
}

// handle processes one event on the single dispatcher thread.
func (d *dispatcher) handle(ev event) error {
	w := d.workers[ev.worker]
	switch ev.kind {
	case evMsg:
		switch ev.msg.Type {
		case "heartbeat":
			d.queue.heartbeat(ev.worker, ev.msg.Hash, time.Now(), d.opts.LeaseTTL)
		case "result":
			return d.commit(w, ev.msg)
		case "error":
			d.opts.Logf("farm: worker %d: job failed in-process: %s", ev.worker, ev.msg.Error)
			return d.failLease(ev.worker, "job error: "+ev.msg.Error)
		}
	case evExit:
		w.alive = false
		if w.closing {
			return nil // expected retirement
		}
		reason := "worker exited"
		if ev.exit != nil {
			reason = fmt.Sprintf("worker exited: %v", ev.exit)
		}
		d.opts.Logf("farm: worker %d died (%s); respawning with backoff", ev.worker, reason)
		if err := d.failLease(ev.worker, reason); err != nil {
			return err
		}
		d.scheduleRespawn(w)
	case evSpawn:
		if w.alive || w.closing || d.queue.idle() {
			return nil
		}
		d.summary.Respawns++
		if err := d.spawn(w); err != nil {
			return err
		}
	}
	return nil
}

// commit journals a finished job. Commits are idempotent by hash, so a
// duplicate completion — a stale worker finishing a job that was already
// requeued and completed elsewhere — is counted and dropped, never
// double-merged.
func (d *dispatcher) commit(w *workerProc, msg *workerMsg) error {
	if msg.Result == nil {
		return d.failLease(w.id, "worker sent an empty result")
	}
	if err := validateResult(msg.Result); err != nil {
		return d.failLease(w.id, fmt.Sprintf("worker sent a malformed result: %v", err))
	}
	committed, err := d.spool.CommitResult(msg.Result)
	if err != nil {
		return err
	}
	w.respawns = 0 // a healthy result resets the backoff
	if d.queue.complete(w.id, msg.Hash) == nil {
		// Stale lease: the job was requeued (or finished) elsewhere. The
		// commit above still counted; withdraw any other copy of the job.
		// If that copy was already leased to a live worker, kill it to
		// resync — it is burning time on work the journal already holds,
		// and its eventual completion would only be a dropped duplicate.
		if other := d.queue.finished(msg.Hash); other >= 0 && other != w.id {
			ow := d.workers[other]
			if ow.alive {
				d.opts.Logf("farm: job %s finished by a stale lease; resyncing worker %d", msg.Result.Job.Key(), other)
				ow.alive = false
				ow.cmd.Process.Kill()
			}
		}
	}
	if committed {
		d.summary.Committed++
		if msg.Result.Chaos != nil && msg.Result.Chaos.Violation != "" {
			d.summary.Violations++
			d.opts.Logf("farm: %s: VIOLATION %s (shrunk to %d events)",
				msg.Result.Job.Key(), msg.Result.Chaos.Violation, msg.Result.Chaos.EventsAfter)
		} else {
			d.opts.Logf("farm: %s committed (%d/%d)", msg.Result.Job.Key(),
				d.summary.Skipped+d.summary.Committed, d.summary.Jobs)
		}
		d.monkeyStrike()
	} else {
		d.summary.Duplicates++
		d.opts.Logf("farm: duplicate completion of %s dropped", msg.Result.Job.Key())
	}
	return nil
}

// validateResult rejects malformed payloads before they reach the journal.
func validateResult(r *Result) error {
	if r.Hash != r.Job.Hash() {
		return fmt.Errorf("hash %s does not match spec (%s)", r.Hash, r.Job.Hash())
	}
	switch r.Job.Kind {
	case KindSweep:
		if len(r.Row) == 0 {
			return fmt.Errorf("sweep result carries no row")
		}
	case KindChaos:
		if r.Chaos == nil {
			return fmt.Errorf("chaos result carries no outcome")
		}
	}
	return nil
}

// failLease fails whatever job the worker holds: requeue, or quarantine
// after MaxFailures consecutive failures. Exactly one of the two happens,
// and nothing happens if the lease already lapsed — that is what keeps a
// crash racing a lease expiry from double-requeuing.
func (d *dispatcher) failLease(worker int, reason string) error {
	requeued, poison := d.queue.fail(worker, reason, time.Now())
	switch {
	case requeued != nil:
		d.summary.Requeues++
		d.opts.Logf("farm: requeued %s after attempt %d (%s)", requeued.spec.Key(), requeued.attempt, reason)
	case poison != nil:
		d.summary.Quarantined++
		q := poison.quarantineEntry()
		if err := d.spool.Quarantine(q); err != nil {
			return err
		}
		d.opts.Logf("farm: QUARANTINED %s after %d failed attempts (replay it with -replay %s)",
			poison.spec.Key(), len(q.Failures), q.Hash)
	}
	return nil
}

// reap enforces the lease and per-job watchdogs: a silent or overrunning
// worker is killed (its exit event respawns it) after its job is failed —
// in that order, so the exit handler finds no lease and the job is
// requeued exactly once.
func (d *dispatcher) reap(now time.Time) {
	for _, ex := range d.queue.expired(now) {
		w := d.workers[ex.worker]
		d.opts.Logf("farm: worker %d: %s; killing worker", ex.worker, ex.reason)
		if err := d.failLease(ex.worker, ex.reason); err != nil {
			// Journaling the quarantine failed; surface on the next loop.
			d.opts.Logf("farm: %v", err)
		}
		if w.alive {
			// Mark the worker dead before the exit event lands so assign
			// cannot lease into the dying process; the exit event then
			// finds no lease to fail and schedules the respawn.
			w.alive = false
			w.cmd.Process.Kill()
		}
	}
}

// monkeyStrike SIGKILLs one randomly chosen busy worker after each of the
// first KillWorkers commits — the built-in chaos monkey behind `make
// farm` and the crash-recovery tests.
func (d *dispatcher) monkeyStrike() {
	if d.summary.Kills >= d.opts.KillWorkers {
		return
	}
	var victims []*workerProc
	for _, w := range d.workers {
		if w.alive && !w.closing {
			victims = append(victims, w)
		}
	}
	if len(victims) == 0 {
		return
	}
	w := victims[d.monkey.IntN(len(victims))]
	d.summary.Kills++
	d.opts.Logf("farm: chaos monkey SIGKILLs worker %d", w.id)
	w.alive = false
	w.cmd.Process.Kill()
}

// scheduleRespawn arms the crashed worker's restart with exponential
// backoff and jitter, so a crash-looping worker (or a poison job cycling
// through the pool) cannot hot-spin the machine.
func (d *dispatcher) scheduleRespawn(w *workerProc) {
	w.respawns++
	backoff := 100 * time.Millisecond << min(w.respawns-1, 6)
	backoff += time.Duration(d.jitter.Float64() * float64(backoff))
	id := w.id
	time.AfterFunc(backoff, func() {
		d.events <- event{worker: id, kind: evSpawn}
	})
}
