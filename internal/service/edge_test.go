package service

import (
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
	"uqsim/internal/rng"
)

func TestBatchLimitBoundsDispatch(t *testing.T) {
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{{
			Name: "proc", Queue: queueing.KindSingle,
			Batching: true, BatchLimit: 2,
			Base:   dist.NewDeterministic(1000),
			PerJob: dist.NewDeterministic(100),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 1)
	jobs := make([]*job.Job, 4)
	h.eng.At(0, func(now des.Time) {
		for i := range jobs {
			jobs[i] = h.newJob()
			in.Enqueue(now, jobs[i])
		}
	})
	for h.eng.Step() {
	}
	// Two batches of 2: first pair at 1200, second pair at 2400.
	finishes := map[des.Time]int{}
	for _, j := range jobs {
		finishes[j.Finished]++
	}
	if finishes[1200] != 2 || finishes[2400] != 2 {
		t.Fatalf("batch-limit finishes %v, want 2@1200 2@2400", finishes)
	}
}

func TestEpollThenSocketPipelineKeepsConnOrder(t *testing.T) {
	// Two connections, two jobs each, flowing through epoll → socket →
	// proc on one core: per-connection FIFO must be preserved end to end.
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "epoll", Queue: queueing.KindEpoll, PerConn: 2, Batching: true,
				Base: dist.NewDeterministic(10)},
			{Name: "read", Queue: queueing.KindSocket, PerConn: 1, Batching: true,
				PerJob: dist.NewDeterministic(20)},
			{Name: "proc", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(100)},
		},
		Paths: []PathSpec{{Name: "p", Stages: []int{0, 1, 2}}},
	}
	in := h.deploy(t, bp, 1)
	var jobs []*job.Job
	h.eng.At(0, func(now des.Time) {
		for i := 0; i < 4; i++ {
			j := h.newJob()
			j.Conn = i % 2
			jobs = append(jobs, j)
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	// Per-connection completion order must match arrival order.
	finishedAt := map[int][]des.Time{}
	for _, j := range jobs {
		if j.Finished == 0 {
			t.Fatal("job never finished")
		}
		finishedAt[j.Conn] = append(finishedAt[j.Conn], j.Finished)
	}
	for conn, ts := range finishedAt {
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("conn %d completions out of order: %v", conn, ts)
			}
		}
	}
	if in.Completed() != 4 {
		t.Fatalf("completed %d", in.Completed())
	}
}

func TestFrequencyChangeMidRunAffectsNewWork(t *testing.T) {
	eng := des.New()
	mach := cluster.NewMachine("m0", 2, cluster.DefaultFreqSpec)
	alloc, _ := mach.Allocate("svc", 1)
	in, err := NewInstance(eng, SingleStage("svc", dist.NewDeterministic(1000)), "svc-0", alloc, rng.New(1), new(RunPool))
	if err != nil {
		t.Fatal(err)
	}
	fac := job.NewFactory()
	first := fac.NewJob(fac.NewRequest(0))
	second := fac.NewJob(fac.NewRequest(0))
	eng.At(0, func(now des.Time) { in.Enqueue(now, first) })
	// Halve the frequency between the two jobs.
	eng.At(5000, func(des.Time) { alloc.SetFreq(1300) })
	eng.At(10000, func(now des.Time) { in.Enqueue(now, second) })
	for eng.Step() {
	}
	if first.Finished != 1000 {
		t.Fatalf("first finished %v (nominal)", first.Finished)
	}
	if second.Finished != 12000 {
		t.Fatalf("second finished %v, want 10000+2000 (half speed)", second.Finished)
	}
}

func TestThreadedManyWaitersDrain(t *testing.T) {
	// 1 thread, burst of 10 jobs: all complete, serialized.
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name:    "svc",
		Model:   ModelThreaded,
		Threads: 1,
		Stages: []StageSpec{{
			Name: "proc", Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(100),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 2)
	h.eng.At(0, func(now des.Time) {
		for i := 0; i < 10; i++ {
			in.Enqueue(now, h.newJob())
		}
	})
	for h.eng.Step() {
	}
	if in.Completed() != 10 {
		t.Fatalf("completed %d", in.Completed())
	}
	if len(h.done) != 10 {
		t.Fatalf("done callbacks %d", len(h.done))
	}
	if h.done[9].Finished != 1000 {
		t.Fatalf("last finished %v, want 1000 (serialized)", h.done[9].Finished)
	}
}

func TestThreadedPoolWaitersWakeInOrder(t *testing.T) {
	h := newHarness(t, 8)
	h.mach.AddPool("disk", 1)
	bp := &Blueprint{
		Name:    "db",
		Model:   ModelThreaded,
		Threads: 4,
		Stages: []StageSpec{{
			Name: "disk", Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(1000), PoolName: "disk",
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 4)
	jobs := make([]*job.Job, 4)
	h.eng.At(0, func(now des.Time) {
		for i := range jobs {
			jobs[i] = h.newJob()
			in.Enqueue(now, jobs[i])
		}
	})
	for h.eng.Step() {
	}
	for i, j := range jobs {
		want := des.Time(1000 * (i + 1))
		if j.Finished != want {
			t.Fatalf("job %d finished %v, want %v (FIFO through single spindle)", i, j.Finished, want)
		}
	}
}

func TestMultiPathStageSharing(t *testing.T) {
	// Two paths share stage 0; jobs of both paths interleave through the
	// shared queue without corrupting progress.
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "shared", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
			{Name: "extra", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(200)},
		},
		Paths: []PathSpec{
			{Name: "short", Stages: []int{0}},
			{Name: "long", Stages: []int{0, 1}},
		},
	}
	in := h.deploy(t, bp, 2)
	var short, long *job.Job
	h.eng.At(0, func(now des.Time) {
		short = h.newJob()
		short.PathID = 0
		long = h.newJob()
		long.PathID = 1
		in.Enqueue(now, long)
		in.Enqueue(now, short)
	})
	for h.eng.Step() {
	}
	if short.Finished != 100 || long.Finished != 300 {
		t.Fatalf("short %v long %v, want 100/300 (2 cores)", short.Finished, long.Finished)
	}
}

func TestArrivalDuringProcessingQueues(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 1)
	a, b := h.newJob(), h.newJob()
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, a) })
	h.eng.At(500, func(now des.Time) { in.Enqueue(now, b) })
	for h.eng.Step() {
	}
	if a.Finished != 1000 || b.Finished != 2000 {
		t.Fatalf("a %v b %v", a.Finished, b.Finished)
	}
	// b waited 500ns in queue.
	if got := max(a.Started-a.Enqueued, b.Started-b.Enqueued); got != 500 {
		t.Fatalf("max stage wait %v, want 500", got)
	}
}
