package des

import (
	"slices"
	"testing"
)

// The same-instant lane must keep the heap's (time, sequence) order exactly;
// reference_test.go checks that on random scripts, these tests on the cases
// where a lane entry and a heap entry tie on time.

// recorder collects the names of fired events.
type recorder []string

func (r *recorder) fn(name string) Callback {
	return func(Time) { *r = append(*r, name) }
}

func (r recorder) want(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(r, want) {
		t.Fatalf("fired %v, want %v", r, want)
	}
}

func TestLaneArmAndPostAtNowFireInSequence(t *testing.T) {
	e := New()
	var got recorder
	var a, b Event
	e.At(10, func(Time) {
		e.Arm(&a, 10, Callback(got.fn("armed first")), KindFunc)
		e.Post(10, got.fn("posted second"))
		e.Post(10, got.fn("posted third"))
		e.Arm(&b, 10, Callback(got.fn("armed fourth")), KindFunc)
	})
	e.Run()
	got.want(t, "armed first", "posted second", "posted third", "armed fourth")
}

func TestLanePostFromCallbackWaitsForEarlierHeapTie(t *testing.T) {
	e := New()
	var got recorder
	e.Post(5, func(Time) {
		got = append(got, "first")
		e.Post(5, got.fn("lane"))
	})
	e.Post(5, got.fn("heap tie")) // at 5 on the heap, sequenced before "lane"
	e.Post(6, got.fn("later"))
	e.Run()
	got.want(t, "first", "heap tie", "lane", "later")
}

func TestLaneStopAndResume(t *testing.T) {
	e := New()
	var got recorder
	e.Post(0, func(Time) {
		got = append(got, "stopper")
		e.Stop()
	})
	e.Post(0, got.fn("after"))
	e.Post(1, got.fn("next instant"))
	e.Run()
	got.want(t, "stopper")
	if e.Pending() != 2 {
		t.Fatalf("pending %d after the stop, want 2", e.Pending())
	}
	e.RunUntil(5) // a stopped engine neither fires nor moves its clock
	if e.Now() != 0 || len(got) != 1 {
		t.Fatalf("stopped engine ran on: now %v, fired %v", e.Now(), got)
	}
	e.Resume()
	e.Run()
	got.want(t, "stopper", "after", "next instant")
	if e.Pending() != 0 || e.Processed() != 3 {
		t.Fatalf("pending %d processed %d, want 0 and 3", e.Pending(), e.Processed())
	}
}

func TestLaneRunUntilNowDrains(t *testing.T) {
	e := New()
	var got recorder
	e.RunUntil(7)
	chain := 0
	var hop Callback
	hop = func(Time) {
		if chain++; chain < 4 {
			e.Post(e.Now(), hop)
		}
	}
	e.Post(7, hop)
	e.Post(7, got.fn("tail"))
	e.Post(8, got.fn("next instant"))
	e.RunUntil(e.Now())
	got.want(t, "tail")
	if chain != 4 || e.Now() != 7 || e.Pending() != 1 {
		t.Fatalf("chain %d now %v pending %d, want 4, 7, 1", chain, e.Now(), e.Pending())
	}
	e.RunUntil(6) // a deadline behind the clock fires nothing
	if e.Now() != 7 || e.Pending() != 1 {
		t.Fatalf("now %v pending %d, want 7, 1", e.Now(), e.Pending())
	}
}

func TestLanePostNowDoesNotAllocate(t *testing.T) {
	e := New()
	hop := func(Time) {}
	for i := 0; i < 64; i++ {
		e.Post(Time(i+1)*Second, hop)
	}
	for i := 0; i < 8; i++ {
		e.Post(0, hop) // grow the lane's backing array
	}
	e.RunUntil(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now(), hop)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("Post at now + Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLaneReusesItsBackingArray: a chain that always keeps one entry
// pending behind the head never empties the lane, yet the lane stays at
// the most entries pending at once.
func TestLaneReusesItsBackingArray(t *testing.T) {
	e := New()
	n := 0
	var hop Callback
	hop = func(Time) {
		if n++; n < 10_000 {
			e.Post(e.Now(), hop)
		}
	}
	e.Post(0, hop)
	e.Post(0, hop)
	e.Run()
	if n != 10_001 {
		t.Fatalf("fired %d, want 10001", n)
	}
	if c := cap(e.lane); c > 8 {
		t.Fatalf("lane capacity %d for two pending entries", c)
	}
}

// TestEnginePeaks pins the heap, lane and calendar high-water marks of a
// script: four events on the heap before a cancel, two far posts on the
// calendar and a third from a callback, three same-instant posts from one
// callback, and later, smaller depths that must not lower any mark.
func TestEnginePeaks(t *testing.T) {
	e := New()
	nop := func(Time) {}
	e.Post(1, func(Time) {
		for i := 0; i < 3; i++ {
			e.Post(1, nop)
		}
		e.Post(10, nop)
	})
	e.Post(2, func(Time) {
		e.Post(2, nop)
		e.Post(2, nop)
		e.Post(5<<calShift, nop)
	})
	e.Post(3, nop)
	e.Cancel(e.At(4, nop))
	e.Post(3<<calShift, nop)
	e.Post(3<<calShift+1, nop)
	if e.HeapPeak() != 4 || e.LanePeak() != 0 || e.CalendarPeak() != 2 || e.Pending() != 5 {
		t.Fatalf("before the run: heap peak %d, lane peak %d, calendar peak %d, pending %d, want 4, 0, 2, 5",
			e.HeapPeak(), e.LanePeak(), e.CalendarPeak(), e.Pending())
	}
	e.Run()
	if e.HeapPeak() != 4 || e.LanePeak() != 3 || e.CalendarPeak() != 3 || e.Processed() != 12 {
		t.Fatalf("heap peak %d, lane peak %d, calendar peak %d, processed %d, want 4, 3, 3, 12",
			e.HeapPeak(), e.LanePeak(), e.CalendarPeak(), e.Processed())
	}
}
