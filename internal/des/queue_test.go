package des

import "testing"

func TestEventQueueOrderAndRecycle(t *testing.T) {
	var q EventQueue
	var got []int
	rec := func(i int) Callback { return func(Time) { got = append(got, i) } }

	var owned Event
	q.Post(30, rec(2))
	q.Post(10, rec(0))
	q.Post(10, rec(1)) // same time: scheduling order breaks the tie
	q.Arm(&owned, 40, rec(3))

	var prev Time
	for {
		at, fn := q.Pop()
		if fn == nil {
			break
		}
		if at < prev {
			t.Fatalf("events out of order: %v after %v", at, prev)
		}
		prev = at
		fn(at)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want 0..3", got)
		}
	}
	if len(q.free) != 3 {
		t.Fatalf("freelist has %d events, want 3 (a caller-owned event must not be recycled)", len(q.free))
	}

	// Posting must reuse freelist storage, arming must not touch it.
	q.Arm(&owned, 45, rec(5))
	q.Post(50, rec(4))
	if len(q.free) != 2 {
		t.Fatalf("freelist has %d events after one Post and one Arm, want 2", len(q.free))
	}
}

func TestEventQueuePopBefore(t *testing.T) {
	var q EventQueue
	fn := func(Time) {}
	q.Post(10, fn)
	q.Post(20, fn)
	q.Post(30, fn)

	if at, fn := q.PopBefore(10); fn != nil {
		t.Fatalf("PopBefore(10) returned event at %v, want none (end is exclusive)", at)
	}
	for _, want := range []Time{10, 20} {
		if at, fn := q.PopBefore(25); fn == nil || at != want {
			t.Fatalf("PopBefore(25) = %v, want event at %v", at, want)
		}
	}
	if at, fn := q.PopBefore(25); fn != nil {
		t.Fatalf("PopBefore(25) = event at %v, want none", at)
	}
	if n := q.Len(); n != 1 {
		t.Fatalf("queue has %d events, want 1", n)
	}
}

func TestEventQueueRemove(t *testing.T) {
	var q EventQueue
	fired := false
	var ev Event
	q.Arm(&ev, 10, func(Time) { fired = true })
	q.Post(20, func(Time) {})

	if !q.Remove(&ev) {
		t.Fatal("Remove reported false for a queued event")
	}
	if q.Remove(&ev) {
		t.Fatal("second Remove reported true")
	}
	if at, ok := q.Peek(); !ok || at != 20 {
		t.Fatalf("Peek = %v,%v, want 20,true", at, ok)
	}
	for at, fn := q.Pop(); fn != nil; at, fn = q.Pop() {
		fn(at)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEnginePostDoesNotAllocateInSteadyState(t *testing.T) {
	e := New()
	var hop Callback
	n := 0
	hop = func(now Time) {
		n++
		if n < 1000 {
			e.Post(now+Microsecond, hop)
		}
	}
	e.Post(0, hop)
	// Warm the freelist with the first events, then measure.
	allocs := testing.AllocsPerRun(100, func() {
		e.Post(e.Now()+2*Microsecond, func(Time) {})
		e.Step()
		e.Step()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state Post allocates %.1f objects/op, want 0", allocs)
	}
}
