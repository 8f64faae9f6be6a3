package des

// Scheduler is the scheduling surface a simulation model needs: read
// the clock, schedule callbacks, cancel them. Both the sequential
// Engine and each logical process of the parallel engine implement it,
// so services, workloads, monitors and controllers are agnostic to
// which engine executes them.
type Scheduler interface {
	// Now reports the current virtual time.
	Now() Time
	// Arm schedules fn at absolute time t on ev, an event the caller
	// owns and that is not queued; arming and cancelling it allocate
	// nothing. Scheduling in the past panics.
	Arm(ev *Event, t Time, fn Callback)
	// At is Arm on a newly allocated event, returned as the handle: for
	// cold paths.
	At(t Time, fn Callback) *Event
	// After schedules fn d after the current time; negative delays
	// clamp to zero.
	After(d Time, fn Callback) *Event
	// Post schedules fn at absolute time t fire-and-forget: no handle
	// is returned and the event's storage is recycled after it fires.
	// Use it on hot paths that never cancel.
	Post(t Time, fn Callback)
	// Cancel prevents ev from firing; no-op on nil, never-armed, fired
	// or already cancelled events.
	Cancel(ev *Event)
}

// Runner extends Scheduler with run-loop control. Top-level harnesses
// (Sim, experiments, benchmarks) drive a Runner; model components only
// ever need the Scheduler half.
type Runner interface {
	Scheduler
	// Run fires events until the queue drains or Stop is called.
	Run()
	// RunUntil fires events with timestamps ≤ deadline, then advances
	// the clock to the deadline.
	RunUntil(deadline Time)
	// Stop halts Run/RunUntil after the current event completes.
	Stop()
	// Resume clears a Stop so the engine can run again.
	Resume()
	// Stopped reports whether the engine is currently stopped.
	Stopped() bool
	// Pending reports the number of live events currently scheduled.
	Pending() int
	// Processed reports how many events have fired since construction.
	Processed() uint64
	// NextEventTime reports the firing time of the earliest pending
	// event across the whole engine.
	NextEventTime() (Time, bool)
}
