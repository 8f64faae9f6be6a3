package des

// The engine's event heap. Post draws fire-and-forget events from the
// engine's slab and Step gives them back as they pop; Arm queues an
// event the caller owns. Neither allocates in steady state. The heap is
// 4-ary over event pointers with the comparison written out, and sifts by
// moving a hole: against container/heap that halves a hold-model step at
// every depth (BenchmarkEngineHold). Binary and 4-ary measured alike up to
// depth 4k; 4-ary moves half as many entries per step.
//
// Posts at the current time skip the heap for a FIFO lane. Lane entries
// are all at Now and were sequenced in order, and every heap entry is at
// Now or later, so the earliest event overall is the lane head unless the
// heap root is at Now with a lower sequence number: the (time, sequence)
// order is exactly the heap's own. A service's coalesced dispatch pump
// posts this way, about half of a fan-out run's events. Posts far ahead
// wait on the calendar until nearly due (calendar.go). Arm stays on the
// heap, since only a heap entry can be cancelled.

const arity = 4

// laneEntry is one post at the current instant; its time is Now.
type laneEntry struct {
	seq uint64
	fn  Callback
}

// postNow appends fn to the lane, first sliding the pending entries to the
// front when the backing array is full, so the lane grows with the most
// entries pending at once, not with how many one instant fires.
func (e *Engine) postNow(fn Callback) {
	if len(e.lane) == cap(e.lane) && e.head > 0 {
		n := copy(e.lane, e.lane[e.head:])
		clear(e.lane[n:])
		e.lane, e.head = e.lane[:n], 0
	}
	e.lane = append(e.lane, laneEntry{e.seq, fn})
	e.seq++
	if n := len(e.lane) - e.head; n > e.lanePeak {
		e.lanePeak = n
	}
}

// laneFirst reports whether the lane head is the earliest pending event.
func (e *Engine) laneFirst() bool {
	return e.head < len(e.lane) &&
		(len(e.h) == 0 || e.h[0].at > e.now || e.h[0].seq > e.lane[e.head].seq)
}

// popLane dequeues the lane head; an emptied lane restarts at the front of
// its backing array.
func (e *Engine) popLane() Callback {
	fn := e.lane[e.head].fn
	e.lane[e.head].fn = nil
	if e.head++; e.head == len(e.lane) {
		e.lane, e.head = e.lane[:0], 0
	}
	return fn
}

// push enqueues ev at absolute time t with the next sequence number.
func (e *Engine) push(ev *Event, t Time, fn Callback) {
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.insert(ev)
}

// insert adds ev, already timed and sequenced, to the heap.
func (e *Engine) insert(ev *Event) {
	e.h = append(e.h, ev)
	if len(e.h) > e.heapPeak {
		e.heapPeak = len(e.h)
	}
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
