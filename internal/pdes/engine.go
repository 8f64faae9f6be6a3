// Package pdes is a conservative parallel discrete-event simulation
// engine. The model is partitioned into logical processes (LPs), each
// with its own clock and event queue. Execution proceeds in barrier-
// synchronised lookahead windows: the engine computes the global
// minimum next-event time (GVT), and every LP with work in the
// half-open window [GVT, GVT+lookahead) runs independently on a worker
// goroutine. Cross-LP interactions must be delayed by at least the
// lookahead (in the cluster model: the cross-machine wire latency), so
// nothing an LP does inside a window can affect another LP within that
// same window — no null messages, no rollback.
//
// Cross-LP events are buffered in per-LP outboxes during a window and
// merged at the barrier in deterministic (destination, time, source LP,
// source sequence) order. Because each destination queue assigns its
// local tie-break sequence numbers in that merged order, a run's event
// interleaving — and therefore its determinism fingerprint — is
// independent of the worker count and of goroutine scheduling.
package pdes

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"uqsim/internal/des"
)

const maxTime = des.Time(math.MaxInt64)

// Options configures a parallel engine.
type Options struct {
	// LPs is the number of logical processes. Values < 1 clamp to 1;
	// with a single LP the engine degenerates to a sequential run that
	// is event-for-event identical to des.Engine.
	LPs int
	// Workers is the number of goroutines executing ready LPs within a
	// window. Values < 1 clamp to 1. The result is bit-identical for
	// every worker count; only wall-clock time changes.
	Workers int
	// Lookahead is the minimum virtual-time delay on any cross-LP
	// event, and therefore the window width. Must be positive when
	// LPs > 1.
	Lookahead des.Time
}

// Engine runs LPs through barrier-synchronised lookahead windows. It
// implements des.Runner by delegating scheduling to LP 0 (the
// coordinator), so existing sequential models run on it unchanged.
type Engine struct {
	opts    Options
	procs   []*Proc
	stopped atomic.Bool
	windows uint64
	inbox   []msg // merge scratch, reused across barriers
}

var _ des.Runner = (*Engine)(nil)

// New returns an engine with opts.LPs logical processes, all clocks at
// zero. It panics if LPs > 1 with a non-positive lookahead: without
// lookahead a conservative engine cannot advance.
func New(opts Options) *Engine {
	if opts.LPs < 1 {
		opts.LPs = 1
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.LPs > 1 && opts.Lookahead <= 0 {
		panic("pdes: multi-LP engine requires a positive lookahead")
	}
	e := &Engine{opts: opts, procs: make([]*Proc, opts.LPs)}
	for i := range e.procs {
		e.procs[i] = &Proc{eng: e, id: i}
	}
	return e
}

// LPs reports the number of logical processes.
func (e *Engine) LPs() int { return len(e.procs) }

// Lookahead reports the configured window width.
func (e *Engine) Lookahead() des.Time { return e.opts.Lookahead }

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.opts.Workers }

// Windows reports how many lookahead windows have been executed.
func (e *Engine) Windows() uint64 { return e.windows }

// Proc returns logical process i. Models use it to schedule work on a
// specific LP during setup and from that LP's own events at runtime.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Now reports the coordinator LP's clock. During a parallel window
// other LPs' clocks may differ by up to the lookahead.
func (e *Engine) Now() des.Time { return e.procs[0].now }

// Arm schedules fn on the coordinator LP on the caller's event.
func (e *Engine) Arm(ev *des.Event, t des.Time, fn des.Callback) { e.procs[0].Arm(ev, t, fn) }

// At schedules fn on the coordinator LP. See des.Scheduler.
func (e *Engine) At(t des.Time, fn des.Callback) *des.Event { return e.procs[0].At(t, fn) }

// After schedules fn on the coordinator LP. See des.Scheduler.
func (e *Engine) After(d des.Time, fn des.Callback) *des.Event { return e.procs[0].After(d, fn) }

// Post schedules fn fire-and-forget on the coordinator LP.
func (e *Engine) Post(t des.Time, fn des.Callback) { e.procs[0].Post(t, fn) }

// Cancel prevents a coordinator-LP event from firing.
func (e *Engine) Cancel(ev *des.Event) { e.procs[0].Cancel(ev) }

// Pending reports the number of live events across all LPs.
func (e *Engine) Pending() int {
	n := 0
	for _, p := range e.procs {
		n += p.q.Len()
	}
	return n
}

// Processed reports how many events have fired across all LPs.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, p := range e.procs {
		n += p.processed
	}
	return n
}

// NextEventTime reports the earliest pending event time across LPs.
func (e *Engine) NextEventTime() (des.Time, bool) { return e.minNext() }

// Stop halts the run after the current event completes. Safe to call
// from any LP's callback; with multiple workers the events of other LPs
// already executing in the same window still complete, so stopping
// mid-run is only deterministic on single-LP engines.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped.Store(false) }

// Stopped reports whether the engine is currently stopped.
func (e *Engine) Stopped() bool { return e.stopped.Load() }

// Run fires events until every LP's queue drains or Stop is called.
func (e *Engine) Run() { e.runLoop(maxTime, false) }

// RunUntil fires events with timestamps ≤ deadline, then advances every
// LP's clock to the deadline. Events beyond the deadline stay pending.
func (e *Engine) RunUntil(deadline des.Time) { e.runLoop(deadline, true) }

func (e *Engine) runLoop(deadline des.Time, advance bool) {
	// Flush cross-LP sends issued during model setup, before any window.
	e.mergeAll()
	ready := make([]*Proc, 0, len(e.procs))
	for !e.stopped.Load() {
		gvt, ok := e.minNext()
		if !ok || gvt > deadline {
			break
		}
		// Events at exactly the deadline must fire (RunUntil is
		// inclusive), and PopBefore is exclusive, hence deadline+1.
		end := satAdd(deadline, 1)
		if len(e.procs) > 1 {
			if w := satAdd(gvt, e.opts.Lookahead); w < end {
				end = w
			}
		}
		ready = ready[:0]
		for _, p := range e.procs {
			if t, ok := p.q.Peek(); ok && t < end {
				ready = append(ready, p)
			}
		}
		e.windows++
		e.execute(ready, end)
		e.mergeAll()
	}
	if advance && !e.stopped.Load() {
		for _, p := range e.procs {
			if p.now < deadline {
				p.now = deadline
			}
		}
	}
}

// execute runs every ready LP's window, in parallel when more than one
// worker is configured. The WaitGroup barrier gives the merge phase a
// happens-before edge over all worker writes.
func (e *Engine) execute(ready []*Proc, end des.Time) {
	w := e.opts.Workers
	if w > len(ready) {
		w = len(ready)
	}
	if w <= 1 {
		for _, p := range ready {
			p.runWindow(end)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(ready) + w - 1) / w
	for start := 0; start < len(ready); start += chunk {
		stop := start + chunk
		if stop > len(ready) {
			stop = len(ready)
		}
		wg.Add(1)
		go func(procs []*Proc) {
			defer wg.Done()
			for _, p := range procs {
				p.runWindow(end)
			}
		}(ready[start:stop])
	}
	wg.Wait()
}

// mergeAll drains every LP's outbox and delivers the messages in
// deterministic (destination, time, source, sequence) order, so each
// destination queue assigns local tie-break sequence numbers
// identically no matter how the window was scheduled across workers.
func (e *Engine) mergeAll() {
	msgs := e.inbox[:0]
	for _, p := range e.procs {
		msgs = append(msgs, p.outbox...)
		p.outbox = p.outbox[:0]
	}
	if len(msgs) > 0 {
		sort.Slice(msgs, func(i, j int) bool {
			a, b := &msgs[i], &msgs[j]
			if a.dst != b.dst {
				return a.dst < b.dst
			}
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for i := range msgs {
			m := &msgs[i]
			p := e.procs[m.dst]
			if m.at < p.now {
				panic(fmt.Sprintf("pdes: merged message for LP %d at %v is before its clock %v",
					m.dst, m.at, p.now))
			}
			p.q.Post(m.at, m.fn)
			m.fn = nil // release the closure; msgs backs the reused scratch
		}
	}
	e.inbox = msgs[:0]
}

// minNext reports the global minimum next-event time (the GVT bound).
func (e *Engine) minNext() (des.Time, bool) {
	best, ok := maxTime, false
	for _, p := range e.procs {
		if t, live := p.q.Peek(); live && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

func satAdd(a, b des.Time) des.Time {
	if s := a + b; s >= a {
		return s
	}
	return maxTime
}
