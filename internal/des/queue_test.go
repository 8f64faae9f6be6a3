package des

import "testing"

func TestEventQueueOrderAndRecycle(t *testing.T) {
	e := New()
	var got []int
	rec := func(i int) Callback { return func(Time) { got = append(got, i) } }

	var owned Event
	e.Post(30, rec(2))
	e.Post(10, rec(0))
	e.Post(10, rec(1)) // same time: scheduling order breaks the tie
	e.Arm(&owned, 40, rec(3))
	posted := make(map[*Event]bool)
	for _, ev := range e.h {
		if ev != &owned {
			posted[ev] = true
		}
	}

	var prev Time
	for e.Step() {
		if e.Now() < prev {
			t.Fatalf("events out of order: %v after %v", e.Now(), prev)
		}
		prev = e.Now()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want 0..3", got)
		}
	}

	// Posting must reuse the fired posts' storage, and a caller-owned
	// event is never recycled: three posts take the three fired events,
	// a fourth a new one.
	e.Arm(&owned, 45, rec(5))
	for i := range 4 {
		e.Post(Time(50+i), rec(4))
	}
	reused := 0
	for _, ev := range e.h {
		if posted[ev] {
			reused++
		} else if ev != &owned && !ev.pooled {
			t.Fatalf("event at %v is neither the owned one nor posted", ev.at)
		}
	}
	if reused != 3 || len(e.h) != 5 {
		t.Fatalf("%d of %d queued events reuse a fired post, want 3 of 5", reused, len(e.h))
	}
}

func TestEventQueueRemove(t *testing.T) {
	e := New()
	fired := false
	var ev Event
	e.Arm(&ev, 10, func(Time) { fired = true })
	e.Post(20, func(Time) {})

	e.Cancel(&ev)
	if e.Canceled() != 1 || ev.Pending() {
		t.Fatalf("Cancel of a queued event: cancelled count %d, pending %v, want 1, false", e.Canceled(), ev.Pending())
	}
	e.Cancel(&ev)
	if e.Canceled() != 1 {
		t.Fatal("second Cancel counted as a removal")
	}
	if e.Pending() != 1 || e.h[0].At() != 20 {
		t.Fatalf("pending %d, want the event at 20 alone", e.Pending())
	}
	e.Run()
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

// TestEngineFarPostDoesNotAllocateInSteadyState: posts about 10 ms ahead
// wait on the calendar. Once its pages and the freelist hold a chain's
// standing depth, a post and the step that fires it allocate nothing.
func TestEngineFarPostDoesNotAllocateInSteadyState(t *testing.T) {
	e := New()
	hop := func(Time) {}
	for i := 0; i < 8; i++ {
		e.Post(Time(i+1)*10*Millisecond/8, hop)
	}
	step := func() {
		e.Post(e.Now()+10*Millisecond, hop)
		e.Step()
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if e.CalendarPeak() == 0 {
		t.Fatal("no post reached the calendar")
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("a far Post and a Step allocate %.2f objects/op, want 0", allocs)
	}
}
