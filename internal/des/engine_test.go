package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d", Microsecond)
	}
	if Millisecond != 1_000_000 {
		t.Fatalf("Millisecond = %d", Millisecond)
	}
	if Second != 1_000_000_000 {
		t.Fatalf("Second = %d", Second)
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in  Time
		sec float64
		ms  float64
		us  float64
	}{
		{0, 0, 0, 0},
		{Second, 1, 1000, 1e6},
		{1500 * Microsecond, 0.0015, 1.5, 1500},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.sec {
			t.Errorf("%v.Seconds() = %v, want %v", c.in, got, c.sec)
		}
		if got := c.in.Millis(); got != c.ms {
			t.Errorf("%v.Millis() = %v, want %v", c.in, got, c.ms)
		}
		if got := c.in.Micros(); got != c.us {
			t.Errorf("%v.Micros() = %v, want %v", c.in, got, c.us)
		}
	}
}

func TestFromNanosClamps(t *testing.T) {
	if FromNanos(-5) != 0 {
		t.Error("negative nanos should clamp to zero")
	}
	if FromNanos(1e30) != MaxTime {
		t.Error("huge nanos should clamp to MaxTime")
	}
	if FromNanos(1234.4) != 1234 {
		t.Errorf("FromNanos(1234.4) = %d", FromNanos(1234.4))
	}
	if FromNanos(1234.6) != 1235 {
		t.Errorf("FromNanos(1234.6) = %d", FromNanos(1234.6))
	}
}

func TestFromDurationAndSeconds(t *testing.T) {
	if FromDuration(3*time.Millisecond) != 3*Millisecond {
		t.Error("FromDuration mismatch")
	}
	if FromSeconds(0.25) != 250*Millisecond {
		t.Error("FromSeconds mismatch")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5 * Nanosecond:     "5ns",
		1500 * Nanosecond:  "1.500us",
		1500 * Microsecond: "1.500ms",
		2500 * Millisecond: "2.500s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.At(d, func(now Time) { got = append(got, now) })
	}
	e.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %v, want 50", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", order)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var trace []Time
	e.At(10, func(now Time) {
		trace = append(trace, now)
		e.After(5, func(now Time) { trace = append(trace, now) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func(Time) { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
	// Double-cancel and nil-cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

// TestEngineCancelAfterFired: cancelling an event that already ran is a
// no-op — it must not touch the heap (the event's slot may have been
// reused), count as a cancellation or re-mark it as pending work.
func TestEngineCancelAfterFired(t *testing.T) {
	e := New()
	fired := 0
	ev := e.At(10, func(Time) { fired++ })
	later := e.At(20, func(Time) { fired++ })
	e.Step() // fires ev
	e.Cancel(ev)
	if ev.Pending() || e.Canceled() != 0 {
		t.Fatalf("post-fire cancel: pending %v, cancelled count %d, want false, 0", ev.Pending(), e.Canceled())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d; post-fire cancel must not disturb other events", fired)
	}
	_ = later
}

// TestEngineCancelLastElement: removing the final heap slot (index ==
// len-1) exercises heap.Remove's no-swap path.
func TestEngineCancelLastElement(t *testing.T) {
	e := New()
	var fired []Time
	e.At(10, func(now Time) { fired = append(fired, now) })
	last := e.At(30, func(now Time) { fired = append(fired, now) })
	e.Cancel(last)
	e.At(20, func(now Time) { fired = append(fired, now) })
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
}

// TestEngineCancelSoleEvent: cancelling the only pending event leaves an
// empty, runnable engine.
func TestEngineCancelSoleEvent(t *testing.T) {
	e := New()
	ev := e.At(5, func(Time) { t.Fatal("cancelled event fired") })
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatal("cancelled sole event still pending")
	}
	e.Run()
	e.At(7, func(Time) {})
	e.Run()
	if e.Now() != 7 {
		t.Fatalf("now = %v, want 7", e.Now())
	}
}

// TestEngineCancelSelfFromCallback: an event cancelling itself mid-fire
// (index already -1) must not corrupt the heap.
func TestEngineCancelSelfFromCallback(t *testing.T) {
	e := New()
	var ev *Event
	fired := 0
	ev = e.At(10, func(Time) {
		fired++
		e.Cancel(ev)
	})
	e.At(20, func(Time) { fired++ })
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestEngineCancelThenRescheduleSameTime: cancel+reschedule at the same
// timestamp keeps the deterministic insertion (seq) order for survivors.
func TestEngineCancelThenRescheduleSameTime(t *testing.T) {
	e := New()
	var order []int
	a := e.At(10, func(Time) { order = append(order, 0) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.Cancel(a)
	e.At(10, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2] (insertion order at equal times)", order)
	}
}

func TestEngineCancelInterleaved(t *testing.T) {
	e := New()
	var fired []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i), func(Time) { fired = append(fired, i) })
	}
	// Cancel the odd ones from within event 0.
	e.At(0, func(Time) {
		for i := 1; i < 10; i += 2 {
			e.Cancel(evs[i])
		}
	})
	e.Run()
	for _, v := range fired {
		if v%2 == 1 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(fired) != 5 {
		t.Fatalf("fired = %v, want 5 even events", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		e.At(d, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after second RunUntil", fired)
	}
}

func TestEngineStopResume(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func(Time) {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after Stop, want 2", count)
	}
	if !e.Stopped() {
		t.Fatal("engine should report stopped")
	}
	e.Resume()
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d after Resume, want 5", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback should panic")
		}
	}()
	e.At(5, nil)
}

// TestEngineNilHandlerPanics: a nil handler is refused at scheduling time,
// by every way in, as a nil callback is.
func TestEngineNilHandlerPanics(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"PostTo": func(e *Engine) { e.PostTo(5, nil, KindStage) },
		"Arm":    func(e *Engine) { e.Arm(new(Event), 5, nil, KindDeadline) },
		"Post":   func(e *Engine) { e.Post(5, nil) },
	} {
		func() {
			e := New()
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a nil handler did not panic", name)
				}
				if e.Pending() != 0 || e.Counts() != (Counts{}) {
					t.Errorf("%s of a nil handler left %d pending, counts %v", name, e.Pending(), e.Counts())
				}
			}()
			schedule(e)
		}()
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := New()
	fired := false
	e.At(10, func(Time) {
		e.After(-100, func(now Time) {
			fired = true
			if now != 10 {
				t.Errorf("clamped event fired at %v", now)
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("clamped event never fired")
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func(Time) {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", e.Processed())
	}
}

// Property: for any set of scheduled delays, the engine fires them in
// nondecreasing time order and the clock ends at the max delay.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New()
		var fired []Time
		var max Time
		for _, d := range delays {
			dt := Time(d)
			if dt > max {
				max = dt
			}
			e.At(dt, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset never fires those events and
// fires every other event exactly once.
func TestEngineCancelProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		total := int(n%64) + 1
		firedSet := make(map[int]int)
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = e.At(Time(r.Intn(50)), func(Time) { firedSet[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < total; i++ {
			if r.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run()
		for i := 0; i < total; i++ {
			if cancelled[i] && firedSet[i] != 0 {
				return false
			}
			if !cancelled[i] && firedSet[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func(Time) {})
		}
		e.Run()
	}
}

// kindLog is a handler that records the kind of every event it is given.
type kindLog []Kind

func (l *kindLog) Fire(_ Time, k Kind) { *l = append(*l, k) }

// TestHandlerIsToldItsKind: one handler scheduled under several kinds, by
// the lane, the heap, the calendar and Arm, is told each event's kind, and
// the engine counts each under it.
func TestHandlerIsToldItsKind(t *testing.T) {
	e := New()
	var l kindLog
	var ev Event
	e.PostTo(0, &l, KindPump)                  // lane
	e.PostTo(5, &l, KindStage)                 // heap
	e.PostTo(3<<calShift, &l, KindArrival)     // calendar
	e.Arm(&ev, 7, &l, KindAttemptTimeout)      // heap, cancellable
	e.Arm(new(Event), 9, &l, KindRetryBackoff) // heap, cancellable
	e.Cancel(&ev)
	e.Run()
	want := kindLog{KindPump, KindStage, KindRetryBackoff, KindArrival}
	if fmt.Sprint(l) != fmt.Sprint(want) {
		t.Fatalf("kinds fired %v, want %v", l, want)
	}
	c := e.Counts()
	if c[KindAttemptTimeout] != (Count{Armed: 1, Canceled: 1}) || c[KindArrival] != (Count{Armed: 1, Fired: 1}) || e.Processed() != 4 {
		t.Fatalf("counts %+v, processed %d", c, e.Processed())
	}
}
