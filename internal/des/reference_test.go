package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the event queue the package shipped before the
// monomorphic heap as the reference: container/heap over an interface, one
// heap-allocated event per At. Any correct priority queue pops a total
// order the same way, so the live engine must match it step for step. The
// equivalence test and the fuzz target below drive both with one script of
// Post / Arm / Cancel / re-Arm / Step / RunUntil / Stop / Resume, heavy on
// timestamp ties and on the removals a sift gets wrong first: the root, the
// last slot, an event cancelling or re-arming itself from inside its own
// callback. Some times lie far enough ahead for the live engine's calendar:
// whole buckets ahead, on a bucket's exact start, on the ring's last bucket
// and past the ring's span.

type refEvent struct {
	at       Time
	seq      uint64
	index    int // heap index; -1 once popped
	canceled bool
	fn       Callback
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now       Time
	h         refHeap
	seq       uint64
	processed uint64
	stopped   bool
}

func (e *refEngine) at(t Time, fn Callback) *refEvent {
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.h, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		heap.Remove(&e.h, ev.index)
	}
}

func (e *refEngine) step() bool {
	if e.stopped || len(e.h) == 0 {
		return false
	}
	ev := heap.Pop(&e.h).(*refEvent)
	e.now = ev.at
	e.processed++
	ev.fn(e.now)
	return true
}

func (e *refEngine) runUntil(deadline Time) {
	for !e.stopped && len(e.h) > 0 && e.h[0].at <= deadline {
		e.step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// scriptSlots is how many caller-owned timers a script juggles: few, so
// that arms, cancels and re-arms keep landing on the same ones.
const scriptSlots = 6

// scriptWorld is one engine under the script, live or reference, behind
// the handful of operations the script performs.
type scriptWorld interface {
	now() Time
	post(t Time, fn Callback)
	arm(slot int, t Time, fn Callback) // the slot is not pending
	cancel(slot int)
	pending(slot int) bool
	armedAt(slot int) Time
	step() bool
	runUntil(t Time)
	stop()
	resume()
	counts() (pending int, processed uint64)
}

type liveWorld struct {
	e     *Engine
	slots [scriptSlots]Event
}

func (w *liveWorld) now() Time                         { return w.e.Now() }
func (w *liveWorld) post(t Time, fn Callback)          { w.e.Post(t, fn) }
func (w *liveWorld) arm(slot int, t Time, fn Callback) { w.e.Arm(&w.slots[slot], t, fn) }
func (w *liveWorld) cancel(slot int)                   { w.e.Cancel(&w.slots[slot]) }
func (w *liveWorld) pending(slot int) bool             { return w.slots[slot].Pending() }
func (w *liveWorld) armedAt(slot int) Time             { return w.slots[slot].At() }
func (w *liveWorld) step() bool                        { return w.e.Step() }
func (w *liveWorld) runUntil(t Time)                   { w.e.RunUntil(t) }
func (w *liveWorld) stop()                             { w.e.Stop() }
func (w *liveWorld) resume()                           { w.e.Resume() }
func (w *liveWorld) counts() (int, uint64)             { return w.e.Pending(), w.e.Processed() }

type refWorld struct {
	e     refEngine
	slots [scriptSlots]*refEvent
}

func (w *refWorld) now() Time                         { return w.e.now }
func (w *refWorld) post(t Time, fn Callback)          { w.e.at(t, fn) }
func (w *refWorld) arm(slot int, t Time, fn Callback) { w.slots[slot] = w.e.at(t, fn) }
func (w *refWorld) cancel(slot int)                   { w.e.cancel(w.slots[slot]) }
func (w *refWorld) pending(slot int) bool {
	ev := w.slots[slot]
	return ev != nil && !ev.canceled && ev.index >= 0
}
func (w *refWorld) armedAt(slot int) Time { return w.slots[slot].at }
func (w *refWorld) step() bool            { return w.e.step() }
func (w *refWorld) runUntil(t Time)       { w.e.runUntil(t) }
func (w *refWorld) stop()                 { w.e.stopped = true }
func (w *refWorld) resume()               { w.e.stopped = false }
func (w *refWorld) counts() (int, uint64) { return len(w.e.h), w.e.processed }

// scriptRun is the state one world accumulates under a script: what fired,
// when, and how often callbacks may still re-arm (so a zero-delay re-arm
// chain ends).
type scriptRun struct {
	w        scriptWorld
	fired    []string
	nextID   int
	rearms   int
	lastSlot int
}

// scriptDelays are the offsets a script schedules at: mostly tiny, so that
// many events share a timestamp and the sequence number decides.
var scriptDelays = [...]Time{0, 0, 1, 1, 1, 2, 3, 7}

// farOffset moves a time from now out to the calendar's range, by k%8:
// half the time not at all, else two buckets ahead, to the exact start of
// the third bucket after now's, onto the ring's last bucket, or one bucket
// past the ring's span (back on the heap). A tiny delay on top of a
// bucket's start ties entries moved from the calendar with heap entries.
func farOffset(now Time, k byte) Time {
	switch k % 8 {
	case 4:
		return 2 << calShift
	case 5:
		return (now>>calShift+3)<<calShift - now
	case 6:
		return calRing << calShift
	case 7:
		return (calRing + 1) << calShift
	}
	return 0
}

// scriptAt is the time a script operation schedules at: a tiny delay from
// scriptDelays, pushed out by farOffset.
func scriptAt(now Time, delay, far byte) Time {
	return now + scriptDelays[delay%8] + farOffset(now, far)
}

// argFar is the far offset a callback's follow-up takes from the top two
// bits of its argument: none, two buckets, a bucket's start, or past the
// ring.
func argFar(arg byte) byte { return [4]byte{0, 4, 5, 7}[arg>>6] }

// callback builds the body of event id. What it does besides recording
// itself depends on act%4: nothing, post a follow-up, cancel a slot (its
// own, when it was armed on that slot), or re-arm its own slot. With act&4 it then stops the engine, and
// the script's next operation resumes it.
func (r *scriptRun) callback(id, slot int, act, arg byte) Callback {
	return func(now Time) {
		r.fired = append(r.fired, fmt.Sprintf("%d@%d", id, now))
		if act&4 != 0 {
			defer r.w.stop()
		}
		switch act % 4 {
		case 1:
			r.post(scriptAt(now, arg, argFar(arg)), 0, 0)
		case 2:
			target := int(arg) % scriptSlots
			if slot >= 0 && arg&0x80 != 0 {
				target = slot // cancel inside its own callback: a no-op by then
			}
			r.w.cancel(target)
		case 3:
			if slot >= 0 && r.rearms > 0 {
				r.rearms--
				r.arm(slot, scriptAt(now, arg, argFar(arg)), arg>>3, arg)
			}
		}
	}
}

func (r *scriptRun) post(t Time, act, arg byte) {
	r.nextID++
	r.w.post(t, r.callback(r.nextID, -1, act, arg))
}

// arm is cancel-then-arm when the slot is still pending: the re-Arm a
// policy does when it restarts a timer.
func (r *scriptRun) arm(slot int, t Time, act, arg byte) {
	r.w.cancel(slot)
	r.nextID++
	r.lastSlot = slot
	r.w.arm(slot, t, r.callback(r.nextID, slot, act, arg))
}

// apply performs one three-byte script operation: op%8 is the operation
// and op>>3 its far offset; a holds the delay (a%8) and what a scheduled
// callback does (a>>3); b is a slot or the callback's argument. An engine
// a callback stopped is resumed first.
func (r *scriptRun) apply(op, a, b byte) {
	r.w.resume()
	now := r.w.now()
	switch op % 8 {
	case 0, 1:
		r.post(scriptAt(now, a, op>>3), a>>3, b)
	case 2, 3:
		r.arm(int(b)%scriptSlots, scriptAt(now, a, op>>3), a>>3, b)
	case 4:
		r.w.cancel(int(a) % scriptSlots)
	case 5:
		r.w.step()
	case 6:
		r.w.runUntil(scriptAt(now, a, op>>3))
	case 7:
		// Aimed cancels: the pending slot due first (the root, when no
		// posted event is earlier), or the slot armed last (the heap's
		// last entry, when it did not sift up).
		target := r.lastSlot
		if a&1 == 0 {
			for s := 0; s < scriptSlots; s++ {
				if r.w.pending(s) && (!r.w.pending(target) || r.w.armedAt(s) < r.w.armedAt(target)) {
					target = s
				}
			}
		}
		r.w.cancel(target)
	}
}

// runScript drives the live engine and the reference with script, three
// bytes an operation, and fails on the first step where they differ in what
// has fired, the clock, the pending count or the processed count.
func runScript(t *testing.T, script []byte) {
	t.Helper()
	live := &scriptRun{w: &liveWorld{e: New()}, rearms: 64}
	ref := &scriptRun{w: &refWorld{}, rearms: 64}
	check := func(step int, what string) {
		t.Helper()
		lp, ln := live.w.counts()
		rp, rn := ref.w.counts()
		same := len(live.fired) == len(ref.fired) && live.w.now() == ref.w.now() && lp == rp && ln == rn
		for i := 0; same && i < len(live.fired); i++ {
			same = live.fired[i] == ref.fired[i]
		}
		for s := 0; same && s < scriptSlots; s++ {
			same = live.w.pending(s) == ref.w.pending(s)
		}
		if !same {
			t.Fatalf("step %d (%s): engines diverged\n live: now %v pending %d processed %d fired %v\n ref:  now %v pending %d processed %d fired %v",
				step, what, live.w.now(), lp, ln, live.fired, ref.w.now(), rp, rn, ref.fired)
		}
		live.fired, ref.fired = live.fired[:0], ref.fired[:0]
	}
	for i := 0; i+2 < len(script); i += 3 {
		live.apply(script[i], script[i+1], script[i+2])
		ref.apply(script[i], script[i+1], script[i+2])
		check(i/3, fmt.Sprintf("op %d", script[i]%8))
	}
	// Drain, past the ring's span and every re-arm chain: every event left
	// must come out in the same order. Each stop a callback makes ends one
	// pass early; only events the script scheduled and re-arms can stop.
	for pass := 0; ; pass++ {
		horizon := Time(live.rearms+2) * (calRing + 2) << calShift
		live.w.resume()
		ref.w.resume()
		live.w.runUntil(live.w.now() + horizon)
		ref.w.runUntil(ref.w.now() + horizon)
		check(len(script)/3+pass, "drain")
		if p, _ := live.w.counts(); p == 0 {
			break
		} else if pass > len(script)/3+64 {
			t.Fatalf("%d events pending after the drain", p)
		}
	}
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*(50+r.Intn(1500)))
		r.Read(script)
		if seed%4 == 0 {
			// Grow a deeper heap before the mixed phase: posts and arms only.
			for i := 0; i < len(script)/2; i += 3 {
				script[i] %= 4
			}
		}
		runScript(t, script)
	}
}

func FuzzEngineScript(f *testing.F) {
	f.Add([]byte{2, 0, 0, 2, 0, 1, 7, 0, 0, 5, 0, 0})          // arm two at one instant, cancel the root, step
	f.Add([]byte{2, 2, 0, 2, 3, 1, 7, 1, 0, 6, 7, 0})          // cancel the last armed, run on
	f.Add([]byte{2, 16 + 2, 0x80, 6, 7, 0})                    // cancels itself inside its callback
	f.Add([]byte{2, 24, 1, 6, 7, 0, 6, 7, 0})                  // re-arms itself inside its callback
	f.Add([]byte{0, 8, 0, 0, 0, 0, 2, 0, 3, 2, 1, 3, 6, 2, 0}) // re-Arm of a pending slot among ties
	// Calendar cases; 8·k+op is op at far offset k, 32+d a post that stops.
	// A RunUntil deadline inside a bucket that still holds a post: an arm at
	// its start+1 fires, the post at start+7 waits.
	f.Add([]byte{40, 7, 0, 42, 2, 0, 46, 2, 0, 5, 0, 0})
	// Stop and Resume mid-bucket: the post at bucket 2's start stops the
	// run, the rest of its bucket is already on the heap, bucket 3 is not.
	f.Add([]byte{32, 32, 0, 32, 6, 0, 32, 7, 0, 40, 0, 0, 62, 0, 0, 5, 0, 0, 6, 0, 0})
	// A moved post tied with a heap entry and a lane entry: post, arm and
	// post at bucket 3's exact start; the first post's follow-up takes the
	// lane at that instant, after the arm and the second post.
	f.Add([]byte{40, 8, 0, 42, 0, 1, 40, 0, 0, 62, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*4096 {
			script = script[:3*4096]
		}
		runScript(t, script)
	})
}

func TestArmQueuedEventPanics(t *testing.T) {
	e := New()
	var ev Event
	e.Arm(&ev, 10, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("arming a queued event did not panic")
		}
		if e.Pending() != 1 || !ev.Pending() {
			t.Fatal("the refused Arm disturbed the queue")
		}
	}()
	e.Arm(&ev, 20, func(Time) {})
}

func TestCancelUnqueuedEventIsNoOp(t *testing.T) {
	e := New()
	var zero, fired, cancelled Event
	hop := func(Time) {}
	e.Arm(&fired, 1, hop)
	e.Arm(&cancelled, 2, hop)
	e.Post(3, hop)
	e.Step()
	e.Cancel(&cancelled)
	for _, ev := range []*Event{nil, &zero, &fired, &cancelled} {
		e.Cancel(ev)
	}
	if e.Pending() != 1 || e.Armed() != 2 || e.Canceled() != 1 {
		t.Fatalf("pending %d armed %d cancelled %d, want 1, 2, 1", e.Pending(), e.Armed(), e.Canceled())
	}
	// All three are armable again.
	for i, ev := range []*Event{&zero, &fired, &cancelled} {
		e.Arm(ev, Time(10+i), hop)
	}
	if e.Pending() != 4 {
		t.Fatalf("pending %d after re-arming, want 4", e.Pending())
	}
}

func TestArmCancelDoesNotAllocate(t *testing.T) {
	e := New()
	hop := func(Time) {}
	for i := 0; i < 64; i++ {
		e.Post(Time(i+1)*Second, hop)
	}
	var ev Event
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Arm(&ev, Millisecond, hop)
		e.Cancel(&ev)
	}); allocs != 0 {
		t.Fatalf("Arm+Cancel allocates %.1f objects/op, want 0", allocs)
	}
}
