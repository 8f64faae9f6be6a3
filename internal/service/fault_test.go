package service

import (
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
)

// TestKillDropsQueuedAndInFlight: a kill drains the queues immediately and
// invalidates the in-flight stage; every lost job surfaces exactly once
// (queued via Kill's return, in-flight via OnJobDrop).
func TestKillDropsQueuedAndInFlight(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", float64(des.Millisecond)), 1)
	var dropped []*job.Job
	in.OnJobDrop = func(now des.Time, j *job.Job) { dropped = append(dropped, j) }

	// 3 jobs: one executes (1ms stage), two queue behind it.
	for i := 0; i < 3; i++ {
		in.Enqueue(0, h.newJob())
	}
	h.eng.RunUntil(100 * des.Microsecond) // first job now mid-stage
	lost := in.Kill(h.eng.Now())
	if len(lost) != 2 {
		t.Fatalf("kill returned %d queued jobs, want 2", len(lost))
	}
	if !in.Down() {
		t.Fatal("instance should be down")
	}
	for h.eng.Step() { // the stale completion event fires and drops the runner
	}
	if len(dropped) != 1 {
		t.Fatalf("%d in-flight drops, want 1", len(dropped))
	}
	if len(h.done) != 0 {
		t.Fatalf("%d jobs completed on a killed instance", len(h.done))
	}
	if got := in.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	if in.InFlight() != 0 {
		t.Fatalf("in-flight %d after kill drain", in.InFlight())
	}
}

// TestRestartServesAgain: after Restart the instance processes new work,
// and completion events from the pre-kill epoch stay dead.
func TestRestartServesAgain(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", float64(des.Millisecond)), 1)
	in.OnJobDrop = func(des.Time, *job.Job) {}

	in.Enqueue(0, h.newJob())
	h.eng.RunUntil(100 * des.Microsecond)
	in.Kill(h.eng.Now())
	in.Restart(200 * des.Microsecond)
	if in.Down() {
		t.Fatal("restart left the instance down")
	}
	fresh := h.newJob()
	if res := in.Admit(h.eng.Now(), fresh); res != Admitted {
		t.Fatalf("admit after restart: %v", res)
	}
	for h.eng.Step() {
	}
	if len(h.done) != 1 || h.done[0] != fresh {
		t.Fatalf("restarted instance completed %d jobs", len(h.done))
	}
}

// TestAdmitShedsAtMaxQueue: queue-length load shedding rejects arrivals
// beyond MaxQueue instead of queueing unboundedly.
func TestAdmitShedsAtMaxQueue(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", float64(des.Millisecond)), 1)
	in.MaxQueue = 2

	admitted, shed := 0, 0
	for i := 0; i < 10; i++ {
		switch in.Admit(0, h.newJob()) {
		case Admitted:
			admitted++
		case RejectedQueue:
			shed++
		default:
			t.Fatal("unexpected rejection")
		}
	}
	// One job starts immediately (queue empties), two queue, rest shed.
	if shed == 0 || admitted+shed != 10 {
		t.Fatalf("admitted %d shed %d", admitted, shed)
	}
	if in.Shed() != uint64(shed) {
		t.Fatalf("Shed() = %d, want %d", in.Shed(), shed)
	}
	for h.eng.Step() {
	}
	if len(h.done) != admitted {
		t.Fatalf("completed %d of %d admitted", len(h.done), admitted)
	}
}

// TestAdmitRejectsDownInstance: routing to a killed instance refuses the
// job rather than queueing it into a black hole.
func TestAdmitRejectsDownInstance(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", float64(des.Microsecond)), 1)
	in.Kill(0)
	if res := in.Admit(0, h.newJob()); res != RejectedDown {
		t.Fatalf("admit on down instance: %v", res)
	}
	// Direct Enqueue on a down instance is a wiring bug.
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on down instance should panic")
		}
	}()
	in.Enqueue(0, h.newJob())
}

// poolBP is a two-stage blueprint whose second stage runs on the machine's
// "disk" pool.
func poolBP(cost float64) *Blueprint {
	return &Blueprint{
		Name: "db",
		Stages: []StageSpec{
			{Name: "cpu", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(cost)},
			{Name: "io", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(cost), PoolName: "disk"},
		},
		Paths: []PathSpec{{Name: "rw", Stages: []int{0, 1}}},
		Model: ModelSimple,
	}
}

// TestKillMidPoolStageReleasesPoolOnce: a job dying mid-I/O must release
// its pool unit exactly once — no leak (unit held forever) and no
// double-release (underflow panic) — and the pool must be reusable after
// the instance restarts.
func TestKillMidPoolStageReleasesPoolOnce(t *testing.T) {
	h := newHarness(t, 4)
	pool := h.mach.AddPool("disk", 1)
	in := h.deploy(t, poolBP(float64(des.Millisecond)), 1)
	in.OnJobDrop = func(des.Time, *job.Job) {}

	in.Enqueue(0, h.newJob())
	// Run past the CPU stage into the I/O stage.
	h.eng.RunUntil(1500 * des.Microsecond)
	if pool.InUse() != 1 {
		t.Fatalf("pool in use %d, want 1 (job mid-I/O)", pool.InUse())
	}
	in.Kill(h.eng.Now())
	for h.eng.Step() { // stale I/O completion fires: releases the unit, drops the job
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool in use %d after drain, want 0", pool.InUse())
	}
	if len(h.done) != 0 {
		t.Fatal("killed job completed")
	}

	// The pool is usable again after restart.
	in.Restart(h.eng.Now())
	in.Enqueue(h.eng.Now(), h.newJob())
	for h.eng.Step() {
	}
	if len(h.done) != 1 {
		t.Fatalf("post-restart job did not complete (%d done)", len(h.done))
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool in use %d at the end", pool.InUse())
	}
}

// TestThreadedKillRestoresThreadPool: a threaded instance killed with jobs
// holding threads must come back with its full thread pool.
func TestThreadedKillRestoresThreadPool(t *testing.T) {
	h := newHarness(t, 2)
	bp := singleStageBP("svc", float64(des.Millisecond))
	bp.Model = ModelThreaded
	bp.Threads = 2
	in := h.deploy(t, bp, 1)
	in.OnJobDrop = func(des.Time, *job.Job) {}

	// 4 jobs: 2 take threads (1 on the core, 1 waiting), 2 wait for threads.
	for i := 0; i < 4; i++ {
		in.Enqueue(0, h.newJob())
	}
	h.eng.RunUntil(100 * des.Microsecond)
	in.Kill(h.eng.Now())
	for h.eng.Step() {
	}
	in.Restart(h.eng.Now())

	// All threads available again: two fresh jobs proceed concurrently.
	in.Enqueue(h.eng.Now(), h.newJob())
	in.Enqueue(h.eng.Now(), h.newJob())
	for h.eng.Step() {
	}
	if len(h.done) != 2 {
		t.Fatalf("post-restart completed %d, want 2", len(h.done))
	}
	if in.InFlight() != 0 {
		t.Fatalf("in-flight %d", in.InFlight())
	}
}

// TestKillDrainsEveryConnection: per-connection queues hand out one
// connection (socket) or a bounded slice of each (epoll) per pop, so a kill
// has to keep popping until the queue is empty.
func TestKillDrainsEveryConnection(t *testing.T) {
	for _, kind := range []queueing.Kind{queueing.KindSocket, queueing.KindEpoll} {
		h := newHarness(t, 4)
		bp := singleStageBP("svc", float64(des.Millisecond))
		bp.Stages[0].Queue, bp.Stages[0].PerConn = kind, 1
		in := h.deploy(t, bp, 1)
		in.OnJobDrop = func(des.Time, *job.Job) {}
		// Nine jobs on three connections; one starts, eight queue.
		for i := 0; i < 9; i++ {
			j := h.newJob()
			j.Conn = i % 3
			in.Enqueue(0, j)
		}
		h.eng.RunUntil(100 * des.Microsecond)
		if lost := in.Kill(h.eng.Now()); len(lost) != 8 {
			t.Fatalf("%s: kill returned %d queued jobs, want 8", kind, len(lost))
		}
		if in.QueueLen() != 0 {
			t.Fatalf("%s: %d jobs still queued on a killed instance", kind, in.QueueLen())
		}
	}
}
