package pdes

import (
	"fmt"

	"uqsim/internal/des"
)

// msg is a cross-LP event buffered in the sender's outbox until the
// window barrier. (at, src, seq) is the deterministic merge key; seq is
// the sender's private send counter, so two messages from the same LP
// to the same destination at the same timestamp keep their issue order.
type msg struct {
	dst, src int
	at       des.Time
	seq      uint64
	fn       des.Callback
}

// Proc is one logical process: a private clock, a private event queue,
// and an outbox of cross-LP messages. It implements des.Scheduler, so
// any model component written against the interface can live entirely
// inside one LP. All methods must be called either during setup (before
// the engine runs) or from this LP's own event callbacks.
type Proc struct {
	eng       *Engine
	id        int
	now       des.Time
	q         des.EventQueue
	processed uint64
	outbox    []msg
	sendSeq   uint64
}

var _ des.Scheduler = (*Proc)(nil)

// ID reports the LP's index within the engine.
func (p *Proc) ID() int { return p.id }

// Now reports this LP's clock. During a window it can trail or lead
// other LPs' clocks by up to the lookahead.
func (p *Proc) Now() des.Time { return p.now }

// Processed reports how many events this LP has fired.
func (p *Proc) Processed() uint64 { return p.processed }

// Arm schedules fn on this LP at absolute time t on the caller's event.
// Scheduling in the past panics: it indicates a causality bug in a model.
func (p *Proc) Arm(ev *des.Event, t des.Time, fn des.Callback) {
	p.check(t, fn)
	p.q.Arm(ev, t, fn)
}

// At is Arm on a newly allocated event, returned as the handle.
func (p *Proc) At(t des.Time, fn des.Callback) *des.Event {
	ev := new(des.Event)
	p.Arm(ev, t, fn)
	return ev
}

// After schedules fn on this LP d after its current time. Negative
// delays clamp to zero.
func (p *Proc) After(d des.Time, fn des.Callback) *des.Event {
	if d < 0 {
		d = 0
	}
	return p.At(p.now+d, fn)
}

// Post schedules fn on this LP fire-and-forget; the event's storage is
// recycled after it fires.
func (p *Proc) Post(t des.Time, fn des.Callback) {
	p.check(t, fn)
	p.q.Post(t, fn)
}

// Cancel prevents an event scheduled on this LP from firing. Events
// must be cancelled by the LP that scheduled them.
func (p *Proc) Cancel(ev *des.Event) { p.q.Remove(ev) }

// Send schedules fn on LP dst after delay. Local sends are ordinary
// posts. Cross-LP sends are buffered in the outbox until the window
// barrier and must respect the engine's lookahead — the conservative
// contract that makes windows safe to run in parallel — so Send panics
// on a cross-LP delay below it.
func (p *Proc) Send(dst int, delay des.Time, fn des.Callback) {
	if fn == nil {
		panic("pdes: nil event callback")
	}
	if delay < 0 {
		delay = 0
	}
	if dst == p.id {
		p.Post(p.now+delay, fn)
		return
	}
	if dst < 0 || dst >= len(p.eng.procs) {
		panic(fmt.Sprintf("pdes: send to unknown LP %d (engine has %d)", dst, len(p.eng.procs)))
	}
	if delay < p.eng.opts.Lookahead {
		panic(fmt.Sprintf("pdes: cross-LP send with delay %v below lookahead %v",
			delay, p.eng.opts.Lookahead))
	}
	p.outbox = append(p.outbox, msg{dst: dst, src: p.id, at: p.now + delay, seq: p.sendSeq, fn: fn})
	p.sendSeq++
}

func (p *Proc) check(t des.Time, fn des.Callback) {
	if t < p.now {
		panic(fmt.Sprintf("pdes: LP %d scheduling event at %v before now %v", p.id, t, p.now))
	}
	if fn == nil {
		panic("pdes: nil event callback")
	}
}

// runWindow drains this LP's events strictly before end, in (time, seq)
// order. Events the callbacks schedule locally inside the window are
// picked up in the same pass; cross-LP sends accumulate in the outbox.
func (p *Proc) runWindow(end des.Time) {
	for !p.eng.stopped.Load() {
		at, fn := p.q.PopBefore(end)
		if fn == nil {
			return
		}
		p.now = at
		p.processed++
		fn(at)
	}
}
