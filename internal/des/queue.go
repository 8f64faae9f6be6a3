package des

// EventQueue is a deterministic priority queue of events ordered by
// (time, sequence). The sequence number is assigned per queue at
// scheduling time, so ties at the same timestamp fire in scheduling
// order regardless of heap internals.
//
// Post draws fire-and-forget events from the queue's own freelist and
// takes them back as they pop; Arm queues an event the caller owns.
// Neither allocates in steady state. The heap is 4-ary over event pointers
// with the comparison written out, and sifts by moving a hole: against
// container/heap that halves a hold-model step at every depth
// (BenchmarkEngineHold). Binary and 4-ary measured alike up to depth 4k;
// 4-ary moves half as many entries per step.
//
// EventQueue is not safe for concurrent use. The parallel engine gives
// each logical process its own queue and synchronises at window
// barriers instead of locking.
type EventQueue struct {
	h    []*Event
	seq  uint64
	free []*Event
}

const arity = 4

// Len reports the number of queued events. A cancelled event leaves the
// heap at once, so every entry counted is live.
func (q *EventQueue) Len() int { return len(q.h) }

// Post enqueues fn at absolute time t fire-and-forget, on storage the
// queue recycles once the event pops.
func (q *EventQueue) Post(t Time, fn Callback) {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	q.push(ev, t, fn)
}

// Arm enqueues fn at absolute time t on the caller's event, which must
// not be queued already: its zero value, or fired, or cancelled.
func (q *EventQueue) Arm(ev *Event, t Time, fn Callback) {
	if ev.pos != 0 {
		panic("des: arming an event that is already queued")
	}
	q.push(ev, t, fn)
}

func (q *EventQueue) push(ev *Event, t Time, fn Callback) {
	ev.at, ev.seq, ev.fn = t, q.seq, fn
	q.seq++
	q.h = append(q.h, ev)
	q.up(len(q.h)-1, ev)
}

// Peek reports the timestamp of the earliest event.
func (q *EventQueue) Peek() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Pop removes the earliest event and returns its time and callback (nil
// when the queue is empty). A posted event's storage is already back on the
// freelist, and an armed event may be armed again, when the callback runs.
func (q *EventQueue) Pop() (Time, Callback) {
	if len(q.h) == 0 {
		return 0, nil
	}
	ev := q.h[0]
	q.removeAt(0)
	at, fn := ev.at, ev.fn
	if ev.pooled {
		ev.fn = nil
		q.free = append(q.free, ev)
	}
	return at, fn
}

// PopBefore is Pop restricted to events strictly before end. Used by the
// parallel engine to drain a lookahead window without disturbing events
// beyond it.
func (q *EventQueue) PopBefore(end Time) (Time, Callback) {
	if len(q.h) == 0 || q.h[0].at >= end {
		return 0, nil
	}
	return q.Pop()
}

// Remove takes ev out of the heap in O(log n) and reports whether it was
// queued: not if nil, never armed, fired or already removed.
func (q *EventQueue) Remove(ev *Event) bool {
	if ev == nil || ev.pos == 0 {
		return false
	}
	q.removeAt(int(ev.pos) - 1)
	return true
}

// removeAt unlinks the entry at heap index i, refilling the slot with
// the last entry.
func (q *EventQueue) removeAt(i int) {
	n := len(q.h) - 1
	q.h[i].pos = 0
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q.h[(i-1)/arity]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up places ev at or above the hole at index i.
func (q *EventQueue) up(i int, ev *Event) {
	h := q.h
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
func (q *EventQueue) down(i int, ev *Event) {
	h := q.h
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
