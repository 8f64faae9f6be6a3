package des

import (
	"fmt"
	"sync/atomic"

	"uqsim/internal/slab"
)

// Callback is the body of a scheduled event. It receives the virtual time at
// which the event fires (always equal to Engine.Now at that instant).
type Callback func(now Time)

// Event is one scheduled callback. At returns a fresh one as a handle; Arm
// queues one the caller owns, usually a field of the record the timer
// guards, so that arming and cancelling allocate nothing. The zero value is
// not queued. An event is queued from Arm until it fires or is cancelled
// (an O(log n) removal, so guards that almost never fire don't bloat the
// heap) and must not be copied or overwritten meanwhile; after that it may
// be armed again, also from inside its own callback.
type Event struct {
	at     Time
	seq    uint64
	fn     Callback
	pos    int32 // heap index + 1; 0 while not queued
	pooled bool  // posted fire-and-forget: the engine recycles it, no handle exists
}

// Pending reports whether the event is queued: armed and neither fired nor
// cancelled yet.
func (e *Event) Pending() bool { return e.pos != 0 }

// before orders events by (time, sequence).
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Engine is a single-threaded discrete-event simulation loop: the clock and
// a deterministic priority queue of events ordered by (time, sequence). The
// sequence number is assigned at scheduling time, so ties at the same
// timestamp fire in scheduling order regardless of heap internals (see
// queue.go). Every model — services, workloads, monitors, controllers —
// schedules on an Engine directly.
//
// Construct with New. Engines are not safe for concurrent use: all
// scheduling must happen from event callbacks or before Run.
type Engine struct {
	now    Time
	h      []*Event    // the event heap; see queue.go
	lane   []laneEntry // posts at the current instant, lane[head:] pending; see queue.go
	head   int
	seq    uint64
	events slab.Slab[Event] // posted events, recycled as they fire
	// stopped is atomic so an external watchdog (signal handler, wall-clock
	// guard) may call Stop while Run spins on another goroutine. Everything
	// else on the engine remains single-threaded.
	stopped   atomic.Bool
	processed uint64
	armed     uint64
	canceled  uint64
	heapPeak  int      // most events on the heap at once
	lanePeak  int      // most same-instant posts pending at once
	cal       calendar // far posts; see calendar.go
}

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{cal: calendar{low: MaxTime}}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events currently scheduled, on the heap,
// the lane and the calendar. A cancelled event leaves the heap at once, so
// every one counted is live.
func (e *Engine) Pending() int { return len(e.h) + len(e.lane) - e.head + e.cal.n }

// Processed reports how many events have fired since construction.
func (e *Engine) Processed() uint64 { return e.processed }

// HeapPeak reports the most events the heap has held at once, LanePeak
// the most same-instant posts pending at once, and CalendarPeak the most
// far posts waiting on the calendar at once: the depths the queue's costs
// grow with.
func (e *Engine) HeapPeak() int     { return e.heapPeak }
func (e *Engine) LanePeak() int     { return e.lanePeak }
func (e *Engine) CalendarPeak() int { return e.cal.peak }

// Arm schedules fn to run at absolute virtual time t on ev, an event the
// caller owns and that is not queued (see Event); arming a queued event
// panics. Scheduling in the past panics too: it indicates a causality bug
// in a model, never a recoverable condition.
func (e *Engine) Arm(ev *Event, t Time, fn Callback) {
	e.check(t, fn)
	if ev.pos != 0 {
		panic("des: arming an event that is already queued")
	}
	e.armed++
	e.push(ev, t, fn)
}

// At is Arm on a freshly allocated event, returned as the handle. It suits
// cold paths; a hot path that cancels owns its event and calls Arm, one that
// never cancels calls Post.
func (e *Engine) At(t Time, fn Callback) *Event {
	ev := new(Event)
	e.Arm(ev, t, fn)
	return ev
}

// After schedules fn to run d after the current virtual time. Negative
// delays clamp to zero.
func (e *Engine) After(d Time, fn Callback) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn at absolute time t fire-and-forget. No handle is
// returned and the event's storage is recycled after it fires, so hot
// paths that never cancel (service stage completions, generator arrivals)
// do not allocate in steady state. A post at the current time skips the
// heap for the same-instant lane, and a post far enough ahead waits on the
// calendar until it is nearly due.
func (e *Engine) Post(t Time, fn Callback) {
	e.check(t, fn)
	if t == e.now {
		e.postNow(fn)
		return
	}
	if b := t >> calShift; uint64(b-e.now>>calShift-2) < calRing-1 { // 2 to calRing buckets ahead
		e.calPost(t, b, fn)
		return
	}
	e.push(e.pooled(), t, fn)
}

// pooled takes a fire-and-forget event from the engine's slab.
func (e *Engine) pooled() *Event {
	ev := e.events.Get()
	ev.pooled = true
	return ev
}

func (e *Engine) check(t Time, fn Callback) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("des: nil event callback")
	}
}

// Cancel prevents ev from firing and removes its heap entry in O(log n).
// Cancelling a nil, never-armed, fired or already-cancelled event is a
// harmless no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.pos == 0 {
		return
	}
	e.removeAt(int(ev.pos) - 1)
	e.canceled++
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty or the engine has been stopped. A posted event's storage
// is already back on the slab, and an armed event may be armed again,
// when the callback runs.
func (e *Engine) Step() bool {
	if e.stopped.Load() {
		return false
	}
	if e.laneFirst() {
		fn := e.popLane()
		e.processed++
		fn(e.now)
		return true
	}
	if len(e.h) == 0 || e.h[0].at >= e.cal.low {
		if e.settle(); len(e.h) == 0 {
			return false
		}
	}
	ev := e.h[0]
	e.removeAt(0)
	at, fn := ev.at, ev.fn
	if ev.pooled {
		ev.fn = nil
		e.events.Put(ev)
	}
	e.now = at
	e.processed++
	fn(at)
	return true
}

// RunUntil fires events with timestamps ≤ deadline, then advances the clock
// to the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	for {
		if e.head == len(e.lane) || e.now > deadline {
			if len(e.h) == 0 || e.h[0].at >= e.cal.low {
				e.settle()
			}
			if len(e.h) == 0 || e.h[0].at > deadline {
				break
			}
		}
		if !e.Step() {
			break
		}
	}
	if e.now < deadline && !e.stopped.Load() {
		e.now = deadline
	}
}

// Stop halts RunUntil after the current event completes. Further Step
// calls report false.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Stopped reports whether the engine is currently stopped.
func (e *Engine) Stopped() bool { return e.stopped.Load() }
