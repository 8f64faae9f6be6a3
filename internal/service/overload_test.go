package service

import (
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
)

const msNs = float64(des.Millisecond)

// TestCanceledEntryJobsDiscardedAtDequeue: a canceled job must never be
// served — it is discarded when a worker would have picked it up, and the
// instance accounts it as canceled-early, not completed.
func TestCanceledEntryJobsDiscardedAtDequeue(t *testing.T) {
	h := newHarness(t, 1)
	in := h.deploy(t, singleStageBP("svc", msNs), 1)
	dead := make(map[job.ID]bool)
	in.IsCanceled = func(j *job.Job) bool { return dead[j.ID] }

	var jobs []*job.Job
	h.eng.At(0, func(now des.Time) {
		for i := 0; i < 5; i++ {
			j := h.newJob()
			jobs = append(jobs, j)
			in.Enqueue(now, j)
		}
	})
	// While the first job is being served, cancel two queued ones.
	h.eng.At(des.Time(msNs/2), func(des.Time) {
		dead[jobs[2].ID] = true
		dead[jobs[3].ID] = true
	})
	for h.eng.Step() {
	}
	if len(h.done) != 3 {
		t.Fatalf("done = %d, want 3", len(h.done))
	}
	if in.CanceledEarly() != 2 {
		t.Fatalf("canceled = %d, want 2", in.CanceledEarly())
	}
	if in.Completed() != 3 || in.InFlight() != 0 {
		t.Fatalf("completed=%d inflight=%d", in.Completed(), in.InFlight())
	}
	// Conservation at the instance level.
	if in.Arrived() != in.Completed()+in.CanceledEarly() {
		t.Fatal("instance conservation")
	}
}

// TestCanceledJobAlreadyStartedRunsToWaste: cancellation is lazy — a job
// already occupying a core finishes and is counted as wasted work.
func TestCanceledJobAlreadyStartedRunsToWaste(t *testing.T) {
	h := newHarness(t, 1)
	in := h.deploy(t, singleStageBP("svc", msNs), 1)
	in.IsCanceled = func(j *job.Job) bool { return j.Outcome == job.OutcomeCanceled }
	var j *job.Job
	h.eng.At(0, func(now des.Time) {
		j = h.newJob()
		in.Enqueue(now, j)
	})
	h.eng.At(des.Time(msNs/2), func(des.Time) { j.Outcome = job.OutcomeCanceled })
	for h.eng.Step() {
	}
	if in.WastedWork() != 1 || in.CanceledEarly() != 0 {
		t.Fatalf("wasted=%d canceled=%d", in.WastedWork(), in.CanceledEarly())
	}
	if in.Completed() != 1 {
		t.Fatal("started work must run to completion")
	}
}

// TestCoDelShedsStaleBacklog: with a CoDel discipline a standing backlog
// is shed once the sojourn stays above target for an interval, and every
// shed job is reported through OnJobShed.
func TestCoDelShedsStaleBacklog(t *testing.T) {
	h := newHarness(t, 1)
	in := h.deploy(t, singleStageBP("svc", msNs), 1)
	if err := in.SetDiscipline(fault.QueueDiscipline{
		Kind:     fault.QueueCoDel,
		Target:   des.Millisecond / 10,
		Interval: des.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	var shed []*job.Job
	in.OnJobShed = func(now des.Time, j *job.Job) { shed = append(shed, j) }

	// Offer 3x capacity for 30ms: 1ms service on one core vs one job
	// every 1/3ms.
	for i := 0; i < 90; i++ {
		at := des.Time(float64(i) * msNs / 3)
		h.eng.At(at, func(now des.Time) { in.Enqueue(now, h.newJob()) })
	}
	for h.eng.Step() {
	}
	if len(shed) == 0 {
		t.Fatal("persistent overload must shed")
	}
	if uint64(len(shed)) != in.Shed() {
		t.Fatalf("callback count %d vs counter %d", len(shed), in.Shed())
	}
	if in.Arrived() != in.Completed()+in.Shed()+uint64(in.InFlight()) {
		t.Fatalf("conservation: %d != %d+%d+%d",
			in.Arrived(), in.Completed(), in.Shed(), in.InFlight())
	}
	// Shed jobs carry zero service: they must never have started.
	for _, j := range shed {
		if j.Started != 0 {
			t.Fatal("shed a started job")
		}
	}
}

// TestAdaptiveLIFOServesNewestUnderOverload: once the head is stale the
// newest arrival is served first.
func TestAdaptiveLIFOServesNewestUnderOverload(t *testing.T) {
	h := newHarness(t, 1)
	in := h.deploy(t, singleStageBP("svc", msNs), 1)
	if err := in.SetDiscipline(fault.QueueDiscipline{
		Kind:   fault.QueueLIFO,
		Target: des.Millisecond / 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Five jobs at t=0: the first is served FIFO; by the time the worker
	// frees up (1ms) the head has waited 1ms > 0.5ms target, so the
	// newest queued job is served next.
	var jobs []*job.Job
	h.eng.At(0, func(now des.Time) {
		for i := 0; i < 5; i++ {
			j := h.newJob()
			jobs = append(jobs, j)
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	if len(h.done) != 5 {
		t.Fatalf("done = %d", len(h.done))
	}
	if h.done[0] != jobs[0] {
		t.Fatal("first job should be served FIFO (queue was fresh)")
	}
	if h.done[1] != jobs[4] {
		t.Fatalf("second served should be the newest, got job %d", h.done[1].ID)
	}
}

// TestLIFORejectsNonFIFOEntryQueue: adaptive LIFO needs PopTail, which
// only the single queue provides.
func TestLIFORejectsNonFIFOEntryQueue(t *testing.T) {
	h := newHarness(t, 1)
	bp := singleStageBP("svc", msNs)
	bp.Stages[0].Queue = "epoll"
	bp.Stages[0].PerConn = 1
	in := h.deploy(t, bp, 1)
	if err := in.SetDiscipline(fault.QueueDiscipline{Kind: fault.QueueLIFO}); err == nil {
		t.Fatal("want error for epoll entry queue")
	}
	if err := in.SetDiscipline(fault.QueueDiscipline{Kind: fault.QueueCoDel}); err != nil {
		t.Fatalf("codel should not need a FIFO queue: %v", err)
	}
}

// TestDisciplineThreadedModel: the vetting also guards the threaded
// model's thread queue.
func TestDisciplineThreadedModel(t *testing.T) {
	h := newHarness(t, 1)
	bp := singleStageBP("svc", msNs)
	bp.Model = ModelThreaded
	bp.Threads = 1
	in := h.deploy(t, bp, 1)
	dead := make(map[job.ID]bool)
	in.IsCanceled = func(j *job.Job) bool { return dead[j.ID] }
	var jobs []*job.Job
	h.eng.At(0, func(now des.Time) {
		for i := 0; i < 3; i++ {
			j := h.newJob()
			jobs = append(jobs, j)
			in.Enqueue(now, j)
		}
	})
	h.eng.At(des.Time(msNs/2), func(des.Time) { dead[jobs[1].ID] = true })
	for h.eng.Step() {
	}
	if in.CanceledEarly() != 1 || in.Completed() != 2 || in.InFlight() != 0 {
		t.Fatalf("canceled=%d completed=%d inflight=%d",
			in.CanceledEarly(), in.Completed(), in.InFlight())
	}
}

// TestVettingEnqueueStartsInSamePump: a vetting callback that enqueues
// into its own instance mid-pass, onto a stage the pass already scanned,
// must see the new job start in that same pump, not in a later one.
func TestVettingEnqueueStartsInSamePump(t *testing.T) {
	h := newHarness(t, 2)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "a", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
			{Name: "b", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
		},
		Paths: []PathSpec{{Name: "a", Stages: []int{0}}, {Name: "b", Stages: []int{1}}},
	}
	in := h.deploy(t, bp, 2)
	first, second := h.newJob(), h.newJob()
	second.PathID = 1
	in.IsCanceled = func(j *job.Job) bool {
		if j == first {
			in.Enqueue(h.eng.Now(), second) // stage b, scanned before stage a
		}
		return false
	}
	h.eng.At(10, func(now des.Time) { in.Enqueue(now, first) })
	h.eng.Step() // the enqueue, which posts the pump
	h.eng.Step() // the pump
	if first.Started != 10 || second.Started != 10 {
		t.Fatalf("after one pump: first started %v, second %v, want both 10", first.Started, second.Started)
	}
	for h.eng.Step() {
	}
	if len(h.done) != 2 || second.Finished != 110 {
		t.Fatalf("done %d, second finished %v, want 2 and 110", len(h.done), second.Finished)
	}
}
