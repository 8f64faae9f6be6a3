package des

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped.Store(false) }

// Canceled reports how many armed events of every kind were removed
// before firing.
func (e *Engine) Canceled() uint64 {
	var n uint64
	for _, c := range e.counts {
		n += c.Canceled
	}
	return n
}

// pendingByKind counts the queued events of each kind, on the heap, the
// lane and the calendar.
func (e *Engine) pendingByKind() (n [NumKinds]uint64) {
	for _, ev := range e.h {
		n[Kind(ev.seq)]++
	}
	for _, en := range e.lane[e.head:] {
		n[Kind(en.seq)]++
	}
	if e.cal.heads != nil {
		for _, i := range e.cal.heads {
			for ; i != 0; i = e.cal.entry(i).next {
				n[Kind(e.cal.entry(i).seq)]++
			}
		}
	}
	return n
}

// At reports the virtual time the event was last scheduled for.
func (e *Event) At() Time { return e.at }
