package service

import (
	"fmt"
	"runtime"
	"testing"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
	"uqsim/internal/rng"
)

// harness bundles the machinery most tests need.
type harness struct {
	eng  *des.Engine
	mach *cluster.Machine
	fac  *job.Factory
	done []*job.Job
}

func newHarness(t *testing.T, cores int) *harness {
	t.Helper()
	return &harness{
		eng:  des.New(),
		mach: cluster.NewMachine("m0", cores, cluster.FreqSpec{}),
		fac:  job.NewFactory(),
	}
}

func (h *harness) deploy(t *testing.T, bp *Blueprint, cores int) *Instance {
	t.Helper()
	alloc, err := h.mach.Allocate(bp.Name, cores)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(h.eng, bp, bp.Name+"-0", alloc, rng.New(7), new(RunPool))
	if err != nil {
		t.Fatal(err)
	}
	in.OnJobDone = func(now des.Time, j *job.Job) { h.done = append(h.done, j) }
	return in
}

func (h *harness) newJob() *job.Job {
	return h.fac.NewJob(h.fac.NewRequest(h.eng.Now()))
}

func singleStageBP(name string, cost float64) *Blueprint {
	return SingleStage(name, dist.NewDeterministic(cost))
}

func TestValidateErrors(t *testing.T) {
	cases := []*Blueprint{
		{},
		{Name: "x"},
		{Name: "x", Stages: []StageSpec{{Name: "s", PerJob: dist.NewDeterministic(1)}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", PerJob: dist.NewDeterministic(1)}},
			Paths: []PathSpec{{Name: "p"}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", PerJob: dist.NewDeterministic(1)}},
			Paths: []PathSpec{{Name: "p", Stages: []int{5}}}},
		{Name: "x", Stages: []StageSpec{{Name: "s"}},
			Paths: []PathSpec{{Name: "p", Stages: []int{0}}}},
		{Name: "x", Model: ModelThreaded,
			Stages: []StageSpec{{Name: "s", PerJob: dist.NewDeterministic(1)}},
			Paths:  []PathSpec{{Name: "p", Stages: []int{0}}}},
		{Name: "x",
			Stages: []StageSpec{{Name: "s", PerJob: dist.NewDeterministic(1),
				PoolName: "disk", Batching: true}},
			Paths: []PathSpec{{Name: "p", Stages: []int{0}}}},
	}
	for i, bp := range cases {
		if err := bp.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := singleStageBP("ok", 10).Validate(); err != nil {
		t.Errorf("valid blueprint rejected: %v", err)
	}
}

// chainBP is a blueprint of n single-queue stages and one path through
// all of them.
func chainBP(n int) *Blueprint {
	bp := &Blueprint{Name: "chain", Paths: []PathSpec{{Name: "p"}}}
	for i := 0; i < n; i++ {
		bp.Stages = append(bp.Stages, StageSpec{Name: fmt.Sprint("s", i), Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(float64(10 + i%7))})
		bp.Paths[0].Stages = append(bp.Paths[0].Stages, i)
	}
	return bp
}

// TestValidateStageLimit: the ready mask has one bit per stage, so a
// blueprint may have 64 stages and no more.
func TestValidateStageLimit(t *testing.T) {
	if err := chainBP(MaxStages).Validate(); err != nil {
		t.Fatalf("%d stages rejected: %v", MaxStages, err)
	}
	err := chainBP(MaxStages + 1).Validate()
	if want := "service chain: 65 stages, at most 64 are supported"; err == nil || err.Error() != want {
		t.Fatalf("65 stages: got error %v, want %q", err, want)
	}
}

// TestReadyMaskCoversQueuedStages runs a burst through a 64-stage chain
// (the top bit included) on two cores and checks after every event that
// each stage queue holding jobs has its ready bit set: a clear bit is
// what lets the pump skip a stage.
func TestReadyMaskCoversQueuedStages(t *testing.T) {
	h := newHarness(t, 2)
	in := h.deploy(t, chainBP(MaxStages), 2)
	const jobs = 50
	for i := 0; i < jobs; i++ {
		h.eng.At(des.Time(i*3), func(now des.Time) { in.Enqueue(now, h.newJob()) })
	}
	for h.eng.Step() {
		for s, q := range in.queues {
			if q.Len() > 0 && in.ready&(1<<s) == 0 {
				t.Fatalf("t=%v: stage %d holds %d jobs but its ready bit is clear", h.eng.Now(), s, q.Len())
			}
		}
	}
	if len(h.done) != jobs || in.ready != 0 {
		t.Fatalf("%d of %d jobs done, ready mask %#x after the drain", len(h.done), jobs, in.ready)
	}
}

func TestExecModelString(t *testing.T) {
	if ModelSimple.String() != "simple" || ModelThreaded.String() != "multi-threaded" {
		t.Fatal("model names")
	}
	if ExecModel(9).String() == "" {
		t.Fatal("unknown model should still print")
	}
}

func TestSimpleSingleJob(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 1)
	j := h.newJob()
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, j) })
	for h.eng.Step() {
	}
	if len(h.done) != 1 {
		t.Fatalf("done = %d", len(h.done))
	}
	if j.Finished != 1000 {
		t.Fatalf("finished at %v, want 1000ns", j.Finished)
	}
	if in.Arrived() != 1 || in.Completed() != 1 || in.InFlight() != 0 {
		t.Fatal("counters")
	}
}

func TestSimpleSerializationOnOneCore(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 1)
	jobs := []*job.Job{h.newJob(), h.newJob(), h.newJob()}
	h.eng.At(0, func(now des.Time) {
		for _, j := range jobs {
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	// One core, three 1µs jobs → finishes at 1000, 2000, 3000.
	for i, want := range []des.Time{1000, 2000, 3000} {
		if jobs[i].Finished != want {
			t.Fatalf("job %d finished %v, want %v", i, jobs[i].Finished, want)
		}
	}
}

func TestSimpleParallelismAcrossCores(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 2)
	jobs := []*job.Job{h.newJob(), h.newJob(), h.newJob(), h.newJob()}
	h.eng.At(0, func(now des.Time) {
		for _, j := range jobs {
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	// Two cores: pairs finish at 1000 and 2000.
	finishes := map[des.Time]int{}
	for _, j := range jobs {
		finishes[j.Finished]++
	}
	if finishes[1000] != 2 || finishes[2000] != 2 {
		t.Fatalf("finish distribution %v", finishes)
	}
}

func TestMultiStagePath(t *testing.T) {
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "a", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
			{Name: "b", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(200)},
			{Name: "c", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(300)},
		},
		Paths: []PathSpec{{Name: "p", Stages: []int{0, 1, 2}}},
	}
	in := h.deploy(t, bp, 1)
	j := h.newJob()
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, j) })
	for h.eng.Step() {
	}
	if j.Finished != 600 {
		t.Fatalf("finished %v, want 600", j.Finished)
	}
}

func TestAlternatePathsSelectStages(t *testing.T) {
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "fast", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(10)},
			{Name: "slow", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(1000)},
		},
		Paths: []PathSpec{
			{Name: "hit", Stages: []int{0}},
			{Name: "miss", Stages: []int{0, 1}},
		},
	}
	in := h.deploy(t, bp, 1)
	hit, miss := h.newJob(), h.newJob()
	hit.PathID = 0
	miss.PathID = 1
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, hit) })
	h.eng.At(5000, func(now des.Time) { in.Enqueue(now, miss) })
	for h.eng.Step() {
	}
	if hit.Finished != 10 {
		t.Fatalf("hit finished %v", hit.Finished)
	}
	if miss.Finished != 5000+10+1000 {
		t.Fatalf("miss finished %v", miss.Finished)
	}
}

func TestInvalidPathPanics(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 10), 1)
	j := h.newJob()
	j.PathID = 3
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	in.Enqueue(0, j)
}

func TestEpollBatchAmortization(t *testing.T) {
	// Stage: base 1000ns amortized over the batch + 100ns per job.
	// 4 jobs on 4 connections arriving together: batched cost =
	// 1000 + 4·100 = 1400, NOT 4·1100.
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{{
			Name: "epoll", Queue: queueing.KindEpoll, PerConn: 1,
			Batching: true,
			Base:     dist.NewDeterministic(1000),
			PerJob:   dist.NewDeterministic(100),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 1)
	jobs := make([]*job.Job, 4)
	h.eng.At(0, func(now des.Time) {
		for i := range jobs {
			jobs[i] = h.newJob()
			jobs[i].Conn = i
			in.Enqueue(now, jobs[i])
		}
	})
	for h.eng.Step() {
	}
	for i, j := range jobs {
		if j.Finished != 1400 {
			t.Fatalf("job %d finished %v, want 1400 (batched)", i, j.Finished)
		}
	}
}

func TestNoBatchingPaysBasePerJob(t *testing.T) {
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{{
			Name: "proc", Queue: queueing.KindSingle,
			Base:   dist.NewDeterministic(1000),
			PerJob: dist.NewDeterministic(100),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 1)
	jobs := []*job.Job{h.newJob(), h.newJob()}
	h.eng.At(0, func(now des.Time) {
		for _, j := range jobs {
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	if jobs[0].Finished != 1100 || jobs[1].Finished != 2200 {
		t.Fatalf("finishes %v, %v; want 1100, 2200", jobs[0].Finished, jobs[1].Finished)
	}
}

func TestPerKBCost(t *testing.T) {
	h := newHarness(t, 4)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{{
			Name: "socket_read", Queue: queueing.KindSocket, PerConn: 0,
			PerJob: dist.NewDeterministic(100), PerKB: 50,
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 1)
	j := h.newJob()
	j.SizeKB = 4
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, j) })
	for h.eng.Step() {
	}
	if j.Finished != 100+4*50 {
		t.Fatalf("finished %v, want 300", j.Finished)
	}
}

func TestFrequencyScaling(t *testing.T) {
	eng := des.New()
	mach := cluster.NewMachine("m0", 2, cluster.DefaultFreqSpec)
	alloc, _ := mach.Allocate("svc", 1)
	in, err := NewInstance(eng, singleStageBP("svc", 1000), "svc-0", alloc, rng.New(1), new(RunPool))
	if err != nil {
		t.Fatal(err)
	}
	fac := job.NewFactory()
	alloc.SetFreq(1300) // half of 2600 → 2× slower
	j := fac.NewJob(fac.NewRequest(0))
	eng.At(0, func(now des.Time) { in.Enqueue(now, j) })
	for eng.Step() {
	}
	if j.Finished != 2000 {
		t.Fatalf("finished %v at 1300MHz, want 2000", j.Finished)
	}
}

func TestPoolStageSerializesOnCapacity(t *testing.T) {
	h := newHarness(t, 4)
	h.mach.AddPool("disk", 1)
	bp := &Blueprint{
		Name: "mongo",
		Stages: []StageSpec{{
			Name: "disk_read", Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(1000), PoolName: "disk",
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 2) // 2 cores but only 1 disk
	jobs := []*job.Job{h.newJob(), h.newJob()}
	h.eng.At(0, func(now des.Time) {
		for _, j := range jobs {
			in.Enqueue(now, j)
		}
	})
	for h.eng.Step() {
	}
	if jobs[0].Finished != 1000 || jobs[1].Finished != 2000 {
		t.Fatalf("disk should serialize: %v, %v", jobs[0].Finished, jobs[1].Finished)
	}
}

func TestPoolStageDoesNotHoldCore(t *testing.T) {
	// One core; job A runs a long disk stage while job B computes on the
	// core concurrently.
	h := newHarness(t, 4)
	h.mach.AddPool("disk", 1)
	bp := &Blueprint{
		Name: "svc",
		Stages: []StageSpec{
			{Name: "disk", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(10000), PoolName: "disk"},
			{Name: "cpu", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(1000)},
		},
		Paths: []PathSpec{
			{Name: "io", Stages: []int{0}},
			{Name: "compute", Stages: []int{1}},
		},
	}
	in := h.deploy(t, bp, 1)
	io, compute := h.newJob(), h.newJob()
	io.PathID, compute.PathID = 0, 1
	h.eng.At(0, func(now des.Time) {
		in.Enqueue(now, io)
		in.Enqueue(now, compute)
	})
	for h.eng.Step() {
	}
	if compute.Finished != 1000 {
		t.Fatalf("compute blocked by disk job: finished %v", compute.Finished)
	}
	if io.Finished != 10000 {
		t.Fatalf("io finished %v", io.Finished)
	}
}

func TestThreadedThreadLimitGatesConcurrency(t *testing.T) {
	h := newHarness(t, 8)
	bp := &Blueprint{
		Name:    "svc",
		Model:   ModelThreaded,
		Threads: 2,
		Stages: []StageSpec{{
			Name: "proc", Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(1000),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 4) // 4 cores, but only 2 threads
	jobs := make([]*job.Job, 4)
	h.eng.At(0, func(now des.Time) {
		for i := range jobs {
			jobs[i] = h.newJob()
			in.Enqueue(now, jobs[i])
		}
	})
	for h.eng.Step() {
	}
	finishes := map[des.Time]int{}
	for _, j := range jobs {
		finishes[j.Finished]++
	}
	if finishes[1000] != 2 || finishes[2000] != 2 {
		t.Fatalf("thread-limited finishes %v, want 2@1000 2@2000", finishes)
	}
}

func TestThreadedCoreLimitAndCtxSwitch(t *testing.T) {
	h := newHarness(t, 8)
	bp := &Blueprint{
		Name:      "svc",
		Model:     ModelThreaded,
		Threads:   4,
		CtxSwitch: 100,
		Stages: []StageSpec{{
			Name: "proc", Queue: queueing.KindSingle,
			PerJob: dist.NewDeterministic(1000),
		}},
		Paths: []PathSpec{{Name: "p", Stages: []int{0}}},
	}
	in := h.deploy(t, bp, 1) // 4 threads contending for 1 core
	jobs := make([]*job.Job, 2)
	h.eng.At(0, func(now des.Time) {
		for i := range jobs {
			jobs[i] = h.newJob()
			in.Enqueue(now, jobs[i])
		}
	})
	for h.eng.Step() {
	}
	// Each dispatch pays 1000 + 100 ctx switch; serialized on 1 core.
	if jobs[0].Finished != 1100 || jobs[1].Finished != 2200 {
		t.Fatalf("finishes %v, %v; want 1100, 2200", jobs[0].Finished, jobs[1].Finished)
	}
}

func TestThreadedPoolBlockingReleasesCore(t *testing.T) {
	// MongoDB-style: cpu parse → disk read → cpu reply. With 2 threads,
	// 1 core, 1 disk: while thread A is on disk, thread B uses the core.
	h := newHarness(t, 8)
	h.mach.AddPool("disk", 1)
	bp := &Blueprint{
		Name:    "mongo",
		Model:   ModelThreaded,
		Threads: 2,
		Stages: []StageSpec{
			{Name: "parse", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
			{Name: "disk", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(5000), PoolName: "disk"},
			{Name: "reply", Queue: queueing.KindSingle, PerJob: dist.NewDeterministic(100)},
		},
		Paths: []PathSpec{{Name: "read", Stages: []int{0, 1, 2}}},
	}
	in := h.deploy(t, bp, 1)
	a, b := h.newJob(), h.newJob()
	h.eng.At(0, func(now des.Time) {
		in.Enqueue(now, a)
		in.Enqueue(now, b)
	})
	for h.eng.Step() {
	}
	// A: parse 0-100, disk 100-5100, reply 5100-5200.
	// B: parse 100-200 (core free while A on disk), disk 5100-10100
	// (waits for the single spindle), reply 10100-10200.
	if a.Finished != 5200 {
		t.Fatalf("a finished %v, want 5200", a.Finished)
	}
	if b.Finished != 10200 {
		t.Fatalf("b finished %v, want 10200", b.Finished)
	}
}

func TestMetricsAndUtilization(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 1)
	for i := 0; i < 10; i++ {
		h.eng.At(des.Time(i)*2000, func(now des.Time) { in.Enqueue(now, h.newJob()) })
	}
	for h.eng.Step() {
	}
	if in.Completed() != 10 {
		t.Fatalf("completed = %d", in.Completed())
	}
	// 10 jobs × 1000ns busy over 19000+1000 ns ≈ 50% utilization.
	u := in.Utilization(h.eng.Now())
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ≈0.5", u)
	}
	if len(h.done) != 10 {
		t.Fatal("residence count")
	}
	var residence, waits des.Time
	for _, j := range h.done {
		residence += j.Finished - j.Arrived
		waits += j.Started - j.Enqueued
	}
	if mean := residence / 10; mean != 1000 {
		t.Fatalf("residence mean %v, want 1000 (no queueing)", mean)
	}
	if waits != 0 {
		t.Fatalf("stage waits sum to %v, want 0", waits)
	}
	if in.QueueLen() != 0 {
		t.Fatal("queue should drain")
	}
}

func TestTierLatencyAccrual(t *testing.T) {
	h := newHarness(t, 4)
	in := h.deploy(t, singleStageBP("svc", 1000), 1)
	in.Tier = 2
	j := h.newJob()
	h.eng.At(0, func(now des.Time) { in.Enqueue(now, j) })
	for h.eng.Step() {
	}
	if d, ok := j.Req.TierLatency(2); !ok || d != 1000 {
		t.Fatalf("tier latency = %v (visited %v), want 1000", d, ok)
	}
	if _, ok := j.Req.TierLatency(0); ok {
		t.Fatal("a tier the request never visited reports a visit")
	}
}

func TestUtilizationZeroTime(t *testing.T) {
	h := newHarness(t, 2)
	in := h.deploy(t, singleStageBP("svc", 10), 1)
	if in.Utilization(0) != 0 {
		t.Fatal("zero-time utilization should be 0")
	}
}

// TestSharedRunPoolHoldsOneRecord: instances that share a RunPool and
// serve jobs one after another reuse one stage-run record between them,
// and a FIFO that holds one job at a time lives on its inline slot, so
// serving a job on each of n instances allocates the same whatever n is.
func TestSharedRunPoolHoldsOneRecord(t *testing.T) {
	serve := func(n int) uint64 {
		eng := des.New()
		mach := cluster.NewMachine("m0", n, cluster.FreqSpec{})
		fac := job.NewFactory()
		runs := new(RunPool)
		ins := make([]*Instance, n)
		for i := range ins {
			alloc, err := mach.Allocate(fmt.Sprintf("svc%d", i), 1)
			if err != nil {
				t.Fatal(err)
			}
			if ins[i], err = NewInstance(eng, singleStageBP("svc", 1000), fmt.Sprintf("svc-%d", i), alloc, rng.New(1), runs); err != nil {
				t.Fatal(err)
			}
		}
		served := 0
		for i, in := range ins {
			in.OnJobDone = func(now des.Time, j *job.Job) {
				served++
				if i+1 < n {
					ins[i+1].Enqueue(now, j) // the next instance serves it once this one is done
				}
			}
		}
		j := fac.NewJob(fac.NewRequest(0))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ins[0].Enqueue(0, j)
		for eng.Step() {
		}
		runtime.ReadMemStats(&after)
		if served != n {
			t.Fatalf("%d instances served the job %d times", n, served)
		}
		return after.Mallocs - before.Mallocs
	}
	one, many := serve(1), serve(256)
	t.Logf("serving on 1 instance: %d mallocs; on 256: %d", one, many)
	if many > one {
		t.Fatalf("serving one job on each of 256 instances made %d mallocs, on one instance %d: runs or queues are per instance", many, one)
	}
}
