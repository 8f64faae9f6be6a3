package des

// Kind says what an event is for: which handler method runs and what it
// does there. The kinds of every package that schedules events live in
// this one table, so an engine can count its events by kind in fixed
// arrays and a run can print them as one table.
type Kind uint8

// The event kinds, one row each.
const (
	// KindFunc is a closure: a cold, one-off event posted with Post, At or
	// After (fault apply and undo, the control plane's loops, tests).
	KindFunc  Kind = iota
	KindStage      // service: a stage run's completion
	KindPump       // service: an instance's coalesced dispatch pump
	KindHop        // sim: a delivery waiting out a delay
	// The request path's timers, the rows of a run's Timers table.
	KindAttemptTimeout // sim: a call attempt's edge timeout
	KindHedgeTrigger   // sim: a hedge race's backup trigger
	KindClientTimeout  // sim: the client's patience with a request
	KindDeadline       // sim: a request's end-to-end budget
	KindRetryBackoff   // sim: the wait before a failed call's retry
	KindArrival        // workload: an open- or closed-loop arrival
	KindIdlePoll       // workload: an open-loop generator waiting out a zero rate
	KindUserWake       // workload: a session user's next request
	KindFluidEpoch     // hybrid: the fluid tier's epoch tick
	KindMonitor        // monitor: a sampling tick
	KindPower          // power: a manager's decision cycle
	NumKinds
)

var kindNames = [NumKinds]string{
	"func", "stage_done", "pump", "hop",
	"attempt_timeout", "hedge_trigger", "client_timeout", "deadline", "retry_backoff",
	"arrival", "idle_poll", "user_wake", "fluid_epoch", "monitor", "power",
}

// String names the kind as a run's tables print it.
func (k Kind) String() string { return kindNames[k] }

// kindBits is the width of the kind an event's sequence value carries in
// its low bits (Engine.sequence): Kind's, so that converting the value to
// a Kind, Kind(ev.seq), takes the kind.
const kindBits = 8

// Count is what an engine did with the events of one kind: Armed counts
// every post and arm, Canceled the armed events removed before firing,
// and Fired those that ran. Armed − Canceled − Fired are still pending.
type Count struct{ Armed, Canceled, Fired uint64 }

// Counts holds a Count per Kind.
type Counts [NumKinds]Count
