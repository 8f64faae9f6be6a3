package des

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Resume clears a Stop so the engine can run again.
func (e *Engine) Resume() { e.stopped.Store(false) }

// Armed reports how many cancellable events (Arm, At, After) have been
// scheduled, and Canceled how many of them were removed before firing.
func (e *Engine) Armed() uint64    { return e.armed }
func (e *Engine) Canceled() uint64 { return e.canceled }

// At reports the virtual time the event was last scheduled for.
func (e *Event) At() Time { return e.at }
