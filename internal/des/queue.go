package des

// The engine's event heap. Post draws fire-and-forget events from the
// engine's freelist and Step takes them back as they pop; Arm queues an
// event the caller owns. Neither allocates in steady state. The heap is
// 4-ary over event pointers with the comparison written out, and sifts by
// moving a hole: against container/heap that halves a hold-model step at
// every depth (BenchmarkEngineHold). Binary and 4-ary measured alike up to
// depth 4k; 4-ary moves half as many entries per step.

const arity = 4

// push enqueues ev at absolute time t with the next sequence number.
func (e *Engine) push(ev *Event, t Time, fn Callback) {
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.h = append(e.h, ev)
	e.up(len(e.h)-1, ev)
}

// removeAt unlinks the entry at heap index i, refilling the slot with
// the last entry.
func (e *Engine) removeAt(i int) {
	n := len(e.h) - 1
	e.h[i].pos = 0
	last := e.h[n]
	e.h[n] = nil
	e.h = e.h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(e.h[(i-1)/arity]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// up places ev at or above the hole at index i.
func (e *Engine) up(i int, ev *Event) {
	h := e.h
	for i > 0 {
		p := (i - 1) / arity
		parent := h[p]
		if !ev.before(parent) {
			break
		}
		h[i] = parent
		parent.pos = int32(i + 1)
		i = p
	}
	h[i] = ev
	ev.pos = int32(i + 1)
}

// down places ev at or below the hole at index i.
func (e *Engine) down(i int, ev *Event) {
	h := e.h
	for {
		c := i*arity + 1
		if c >= len(h) {
			break
		}
		least := h[c]
		for k, end := c+1, min(c+arity, len(h)); k < end; k++ {
			if h[k].before(least) {
				c, least = k, h[k]
			}
		}
		if !least.before(ev) {
			break
		}
		h[i] = least
		least.pos = int32(i + 1)
		i = c
	}
	h[i] = ev
	ev.pos = int32(i + 1)
}
