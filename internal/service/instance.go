package service

import (
	"fmt"
	"math/bits"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/queueing"
	"uqsim/internal/rng"
	"uqsim/internal/slab"
)

// Instance is one deployed copy of a microservice blueprint, pinned to a
// core allocation on a machine, processing jobs on a DES engine.
type Instance struct {
	BP    *Blueprint
	Name  string
	Alloc *cluster.Allocation
	// Tier is the number under which completed jobs accrue their residence
	// on the request (job.Request.AddTierLatency), assigned by the sim.
	Tier int
	// Index is the instance's position among its service's instances,
	// assigned by the sim: with Tier it names the instance densely.
	Index int

	eng *des.Engine
	r   *rng.Source

	queues []queueing.Queue
	// ready has bit s set while stage s's queue may hold jobs: pushToStage
	// sets it, and the simple-model pump clears it when it finds or leaves
	// that queue empty. A clear bit means an empty queue, so the pump
	// visits only the stages with work.
	ready uint64

	// Simple-model + threaded-model core accounting.
	busyCores int

	// pumpPending coalesces same-instant dispatch attempts; pumpFn is the
	// dispatch callback, bound once so scheduling a pump allocates nothing.
	pumpPending bool
	pumpFn      des.Callback

	// runs recycles stage-execution records, shared with every instance
	// of the simulation; one is the single-job pop buffer of the threaded
	// model.
	runs *RunPool
	one  [1]*job.Job

	// Fault state: down marks a killed instance; epoch invalidates
	// completion events scheduled before the kill (their callbacks see a
	// stale epoch and report the job dropped instead of completed).
	// downSince stamps the kill instant so failure detectors can measure
	// their detection lag against ground truth.
	down      bool
	downSince des.Time
	epoch     uint64

	// MaxQueue, when positive, sheds arrivals once QueueLen reaches it —
	// saturation then degrades gracefully (bounded queueing delay, fast
	// rejections) instead of unboundedly.
	MaxQueue int

	// OnJobDrop fires for every job lost to a kill: jobs drained from
	// queues at kill time, and in-flight jobs reported when their stale
	// completion events fire. Set by the sim layer to propagate failure
	// upstream.
	OnJobDrop func(now des.Time, j *job.Job)

	// OnJobShed fires for every entry job shed by the CoDel discipline at
	// dequeue time (unlike MaxQueue sheds, the job had been admitted). Set
	// by the sim layer to fail the attempt upstream.
	OnJobShed func(now des.Time, j *job.Job)

	// IsCanceled, when set, is consulted for every entry job at dequeue:
	// a true return discards the job unserved (its request already
	// terminated — deadline expiry, client timeout, or a lost hedge race).
	// Lazy cancellation at dequeue keeps enqueue O(1) while guaranteeing
	// no core is ever spent on work nobody wants. A true return hands the
	// job back: the instance never touches it again, so the callee may
	// recycle it there and then.
	IsCanceled func(j *job.Job) bool

	// Overload admission discipline for entry jobs (first path stage).
	disc  fault.QueueDiscipline
	codel *fault.CoDel

	// Threaded-model state.
	idleThreads int
	threadQ     *queueing.FIFO // jobs waiting for a thread
	coreQ       *queueing.FIFO // jobs (holding threads) waiting for a core
	poolQ       map[string]*queueing.FIFO

	// OnJobDone fires when a job completes its service-local path. Set
	// by the sim layer to route the job to downstream path nodes.
	OnJobDone func(now des.Time, j *job.Job)

	// Metrics.
	arrived    uint64
	completed  uint64
	shed       uint64
	dropped    uint64
	canceled   uint64 // entry jobs discarded unserved (dead request / lost hedge)
	wasted     uint64 // jobs served to completion whose result was discarded
	inFlight   int
	busyNsAcc  float64
	lastChange des.Time
}

// NewInstance deploys bp as name on the given allocation and engine, with a
// dedicated random stream, taking its stage runs from runs, the pool every
// instance on the engine shares. The blueprint must validate.
func NewInstance(eng *des.Engine, bp *Blueprint, name string, alloc *cluster.Allocation, r *rng.Source, runs *RunPool) (*Instance, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	if alloc == nil || alloc.Cores < 1 {
		return nil, fmt.Errorf("service %s: needs a core allocation", name)
	}
	in := &Instance{
		BP:    bp,
		Name:  name,
		Alloc: alloc,
		eng:   eng,
		r:     r,
		runs:  runs,
	}
	in.pumpFn = in.pump
	in.queues = make([]queueing.Queue, len(bp.Stages))
	for i, s := range bp.Stages {
		in.queues[i] = queueing.New(s.Queue, s.PerConn)
	}
	if bp.Model == ModelThreaded {
		in.idleThreads = bp.Threads
		in.threadQ = queueing.NewFIFO()
		in.coreQ = queueing.NewFIFO()
		in.poolQ = make(map[string]*queueing.FIFO)
	}
	return in, nil
}

// AdmitResult reports what Admit did with a job.
type AdmitResult int

// Admission outcomes.
const (
	// Admitted: the job entered the instance's queues.
	Admitted AdmitResult = iota
	// RejectedDown: the instance is killed; the connection is refused.
	RejectedDown
	// RejectedQueue: load shedding — the queue is at MaxQueue.
	RejectedQueue
)

// Admit offers a job to the instance, applying fault and load-shedding
// admission control: a down instance refuses it, a full one (MaxQueue)
// sheds it. Callers that route jobs should use Admit and handle rejection;
// Enqueue panics on a down instance.
func (in *Instance) Admit(now des.Time, j *job.Job) AdmitResult {
	if in.down {
		return RejectedDown
	}
	if in.MaxQueue > 0 && in.QueueLen() >= in.MaxQueue {
		in.shed++
		return RejectedQueue
	}
	in.Enqueue(now, j)
	return Admitted
}

// Enqueue admits a job into the instance. The job's PathID selects the
// execution path; out-of-range paths panic (a wiring bug, not load).
func (in *Instance) Enqueue(now des.Time, j *job.Job) {
	if j.PathID < 0 || j.PathID >= len(in.BP.Paths) {
		panic(fmt.Sprintf("service %s: job %d has path %d of %d",
			in.Name, j.ID, j.PathID, len(in.BP.Paths)))
	}
	if in.down {
		panic(fmt.Sprintf("service %s: enqueue on a down instance (route via Admit)", in.Name))
	}
	in.arrived++
	in.inFlight++
	j.Arrived = now
	j.Enqueued = now
	j.StageIdx = 0
	switch in.BP.Model {
	case ModelThreaded:
		in.threadQ.Push(j)
		in.schedulePump(now)
	default:
		in.pushToStage(now, j)
		in.schedulePump(now)
	}
}

// schedulePump defers worker dispatch to an event at the current time, so
// that all jobs arriving at the same instant are visible to one batch pop —
// the simulator analogue of epoll_wait collecting every ready event before
// the worker runs.
func (in *Instance) schedulePump(now des.Time) {
	if in.pumpPending {
		return
	}
	in.pumpPending = true
	in.eng.Post(now, in.pumpFn)
}

func (in *Instance) pump(now des.Time) {
	in.pumpPending = false
	if in.BP.Model == ModelThreaded {
		in.pumpThreaded(now)
	} else {
		in.pumpSimple(now)
	}
}

// pushToStage places j into the queue of its current path stage.
func (in *Instance) pushToStage(now des.Time, j *job.Job) {
	stage := in.BP.Paths[j.PathID].Stages[j.StageIdx]
	j.Enqueued = now
	in.queues[stage].Push(j)
	in.ready |= 1 << stage
}

// ---- overload admission ----

// SetDiscipline installs the entry-queue overload discipline (CoDel
// sojourn shedding and/or adaptive LIFO ordering). Must be called before
// the run starts; LIFO kinds require a plain FIFO entry queue.
func (in *Instance) SetDiscipline(d fault.QueueDiscipline) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.LIFO() && in.BP.Model != ModelThreaded {
		for i, s := range in.BP.Stages {
			if in.entryStage(i) && s.Queue != queueing.KindSingle {
				return fmt.Errorf("service %s: adaptive LIFO needs a %q entry queue, stage %d is %q",
					in.Name, queueing.KindSingle, i, s.Queue)
			}
		}
	}
	in.disc = d.WithDefaults()
	if d.Sheds() {
		in.codel = fault.NewCoDel(d)
	} else {
		in.codel = nil
	}
	return nil
}

// Discipline reports the installed entry-queue discipline.
func (in *Instance) Discipline() fault.QueueDiscipline { return in.disc }

// entryStage reports whether blueprint stage s is the first stage of any
// execution path — the stage whose queue holds not-yet-started jobs.
func (in *Instance) entryStage(s int) bool {
	for _, p := range in.BP.Paths {
		if len(p.Stages) > 0 && p.Stages[0] == s {
			return true
		}
	}
	return false
}

// entryJob reports whether j is still at its admission point: first path
// stage, no processing done. Only such jobs may be vetted — once work has
// been invested the job runs to completion (and is counted wasted if its
// result turns out to be unwanted).
func entryJob(j *job.Job) bool { return j.StageIdx == 0 && j.Started == 0 }

// overloadActive reports whether any dequeue-time vetting is configured.
func (in *Instance) overloadActive() bool {
	return in.IsCanceled != nil || in.codel != nil || in.disc.LIFO()
}

// popEntry pops up to max jobs from q into the empty buffer buf, applying
// the overload controls to entry jobs: canceled jobs are discarded, CoDel
// sheds stale heads, and adaptive LIFO serves the newest job while the
// head's sojourn exceeds the target. Non-entry jobs (later path stages) pass
// through untouched. Returns buf still empty once the queue has drained;
// with no controls configured it degrades to a plain PopInto, preserving
// batch amortization.
func (in *Instance) popEntry(now des.Time, q queueing.Queue, max int, buf []*job.Job) []*job.Job {
	if !in.overloadActive() {
		return q.PopInto(buf, max)
	}
	for q.Len() > 0 {
		batch := in.popOrdered(now, q, max, buf)
		kept := batch[:0]
		for _, j := range batch {
			if !entryJob(j) {
				kept = append(kept, j)
				continue
			}
			if in.IsCanceled != nil && in.IsCanceled(j) {
				in.canceled++
				in.inFlight--
				continue
			}
			if in.codel != nil && in.codel.OnDequeue(now, now-j.Enqueued) {
				in.shed++
				in.inFlight--
				if in.OnJobShed != nil {
					in.OnJobShed(now, j)
				}
				continue
			}
			kept = append(kept, j)
		}
		if len(kept) > 0 {
			return kept
		}
		buf = kept
	}
	return buf
}

// popOrdered applies the adaptive-LIFO flip: while the oldest entry job
// has waited longer than the target, the newest job is served first —
// fresh requests can still meet their deadlines, stale ones mostly
// cannot. Otherwise the queue's native batch discipline applies.
func (in *Instance) popOrdered(now des.Time, q queueing.Queue, max int, buf []*job.Job) []*job.Job {
	if in.disc.LIFO() {
		if f, ok := q.(*queueing.FIFO); ok {
			if head := f.Peek(); head != nil && entryJob(head) && now-head.Enqueued > in.disc.Target {
				return append(buf, f.PopTail())
			}
		}
	}
	return q.PopInto(buf, max)
}

// ---- stage execution ----

// stageRun is one stage execution in progress: the batch holding a core or
// a pool unit until its completion event fires. Runs are recycled through
// a RunPool; each owns its batch buffer, which starts on an inline slot,
// and binds its completion callback once, so dispatching a stage allocates
// nothing.
type stageRun struct {
	in    *Instance
	batch []*job.Job
	stage int
	// epoch is the instance epoch the run started in; a different epoch at
	// completion means a kill invalidated the run and its work is lost.
	epoch uint64
	pool  *cluster.Pool // the pool unit held (nil: the run holds a core)
	done  des.Callback  // complete, bound when the record is carved
	one   [1]*job.Job   // the batch's first backing array
}

// RunPool recycles stage runs. One pool serves every instance of a
// simulation, so the records it holds follow the stages running at once,
// not the number of instances. The zero value is ready.
type RunPool struct{ slab.Slab[stageRun] }

func (in *Instance) newRun() *stageRun {
	r := in.runs.Get()
	if r.done == nil { // fresh from the slab
		r.done = r.complete
		r.batch = r.one[:0]
	}
	r.in = in
	return r
}

func (in *Instance) freeRun(r *stageRun) {
	r.batch = r.batch[:0]
	in.runs.Put(r)
}

// start occupies one unit of pool (e.g. a disk spindle) — or, when pool is
// nil, one core — with r's batch for the sampled duration plus extra, and
// stamps the jobs a worker picks up for the first time.
func (in *Instance) start(now des.Time, stage int, r *stageRun, pool *cluster.Pool, extra des.Time) {
	for _, j := range r.batch {
		if j.Started == 0 {
			j.Started = now
		}
	}
	if pool == nil {
		in.setBusy(now, in.busyCores+1)
	}
	dur := in.sampleCost(stage, r.batch, pool != nil) + extra
	r.stage, r.epoch, r.pool = stage, in.epoch, pool
	in.eng.Post(now+dur, r.done)
}

// complete fires when the run's duration has elapsed.
func (r *stageRun) complete(now des.Time) {
	in, pool := r.in, r.pool
	if pool != nil {
		// The pool unit is freed exactly once — here — whether or not
		// the instance survived; a kill must never double-release it.
		pool.Release()
	}
	lost := in.epoch != r.epoch
	if lost {
		// The instance was killed mid-stage: the work is lost.
		in.dropBatch(now, r.batch)
	} else if pool == nil {
		in.setBusy(now, in.busyCores-1)
	}
	if in.BP.Model == ModelThreaded {
		j, stage := r.batch[0], r.stage
		in.freeRun(r)
		if pool != nil {
			in.wakePoolWaiter(now, in.BP.Stages[stage].PoolName, pool)
		} else if !lost {
			in.wakeCoreWaiter(now)
		}
		if !lost {
			in.finishThreadedStage(now, j)
		}
		return
	}
	if !lost {
		in.advanceBatch(now, r.batch)
	}
	in.freeRun(r)
	if !lost || pool != nil {
		in.pumpSimple(now) // even after a kill, a queued job may be waiting for the freed unit
	}
}

// ---- simple (event-driven) model ----

func (in *Instance) pumpSimple(now des.Time) {
	if in.down {
		return
	}
	// A pass leaves each stage with an empty queue or nothing free to run
	// it on, and within a pump cores and pool units are only taken and only
	// Enqueue adds to a queue: another pass can start something only if a
	// vetting callback (IsCanceled, OnJobShed) enqueued here meanwhile.
	// A pass visits stages from the last to the first, as a descending scan
	// would, but only those whose ready bit is set; the mask is re-read
	// below each visited stage, so a job a callback queues at a lower stage
	// is still seen in this pass.
	for again := true; again; {
		progress, arrived := false, in.arrived
		for below := uint64(1)<<len(in.BP.Stages) - 1; in.ready&below != 0; {
			s := bits.Len64(in.ready&below) - 1
			below = 1<<s - 1
			st := &in.BP.Stages[s]
			q := in.queues[s]
			if q.Len() == 0 {
				in.ready &^= 1 << s
				continue
			}
			if st.PoolName != "" {
				pool := in.mustPool(st.PoolName)
				for q.Len() > 0 && pool.TryAcquire() {
					r := in.newRun()
					r.batch = in.popEntry(now, q, 1, r.batch)
					if len(r.batch) == 0 {
						in.freeRun(r)
						pool.Release()
						break
					}
					in.start(now, s, r, pool, 0)
					progress = true
				}
			} else {
				for q.Len() > 0 && in.busyCores < in.Alloc.Cores {
					r := in.newRun()
					r.batch = in.popEntry(now, q, in.batchMax(st), r.batch)
					if len(r.batch) == 0 {
						in.freeRun(r)
						break
					}
					in.start(now, s, r, nil, 0)
					progress = true
				}
			}
			if q.Len() == 0 {
				in.ready &^= 1 << s
			}
		}
		again = progress && in.arrived != arrived
	}
}

func (in *Instance) batchMax(st *StageSpec) int {
	if !st.Batching {
		return 1
	}
	return st.BatchLimit
}

func (in *Instance) mustPool(name string) *cluster.Pool {
	pool, ok := in.Alloc.Machine.Pool(name)
	if !ok {
		panic(fmt.Sprintf("service %s: machine %s has no pool %q",
			in.Name, in.Alloc.Machine.Name, name))
	}
	return pool
}

// ---- threaded (blocking) model ----

func (in *Instance) pumpThreaded(now des.Time) {
	if in.down {
		return
	}
	// Assign idle threads to waiting jobs. Everything in threadQ is an
	// entry job, so the overload vetting applies to each pop.
	for in.idleThreads > 0 && in.threadQ.Len() > 0 {
		batch := in.popEntry(now, in.threadQ, 1, in.one[:0])
		if len(batch) == 0 {
			return
		}
		in.idleThreads--
		in.runThreadedStage(now, batch[0])
	}
}

// runThreadedStage executes j's current stage; j holds a thread.
func (in *Instance) runThreadedStage(now des.Time, j *job.Job) {
	path := in.BP.Paths[j.PathID]
	stage := path.Stages[j.StageIdx]
	st := &in.BP.Stages[stage]
	if st.PoolName != "" {
		pool := in.mustPool(st.PoolName)
		if !pool.TryAcquire() {
			q, ok := in.poolQ[st.PoolName]
			if !ok {
				q = queueing.NewFIFO()
				in.poolQ[st.PoolName] = q
			}
			j.Enqueued = now
			q.Push(j)
			return
		}
		in.startOne(now, stage, j, pool, 0)
		return
	}
	if in.busyCores >= in.Alloc.Cores {
		j.Enqueued = now
		in.coreQ.Push(j)
		return
	}
	var ctxSwitch des.Time
	if in.BP.Threads > in.Alloc.Cores && in.BP.CtxSwitch > 0 {
		ctxSwitch = in.BP.CtxSwitch
	}
	in.startOne(now, stage, j, nil, ctxSwitch)
}

// startOne starts a single-job stage run (the threaded model never batches).
func (in *Instance) startOne(now des.Time, stage int, j *job.Job, pool *cluster.Pool, extra des.Time) {
	r := in.newRun()
	r.batch = append(r.batch, j)
	in.start(now, stage, r, pool, extra)
}

func (in *Instance) wakeCoreWaiter(now des.Time) {
	if in.down {
		return
	}
	if in.coreQ.Len() > 0 && in.busyCores < in.Alloc.Cores {
		in.runThreadedStage(now, in.coreQ.Pop())
	}
}

func (in *Instance) wakePoolWaiter(now des.Time, name string, pool *cluster.Pool) {
	if in.down {
		return
	}
	if q, ok := in.poolQ[name]; ok && q.Len() > 0 && pool.InUse() < pool.Capacity {
		in.runThreadedStage(now, q.Pop())
	}
}

// finishThreadedStage advances j past its current stage.
func (in *Instance) finishThreadedStage(now des.Time, j *job.Job) {
	path := in.BP.Paths[j.PathID]
	j.StageIdx++
	if j.StageIdx < len(path.Stages) {
		in.runThreadedStage(now, j)
		return
	}
	// Path complete: release the thread, admit the next waiter.
	in.idleThreads++
	in.completeJob(now, j)
	in.pumpThreaded(now)
}

// ---- fault handling ----

// Kill takes the instance down: queued jobs are drained and returned (the
// caller propagates their failure upstream), in-flight work is invalidated
// via the epoch — when a stale completion event fires, its jobs are
// reported through OnJobDrop instead of completing. Killing an
// already-down instance is a no-op returning nil.
func (in *Instance) Kill(now des.Time) []*job.Job {
	if in.down {
		return nil
	}
	in.down = true
	in.downSince = now
	in.epoch++
	in.setBusy(now, 0)
	var lost []*job.Job
	for _, q := range in.queues {
		for q.Len() > 0 { // one pop may take only part: a batch per connection
			lost = q.PopInto(lost, 0)
		}
	}
	in.ready = 0
	if in.BP.Model == ModelThreaded {
		for in.threadQ.Len() > 0 {
			lost = append(lost, in.threadQ.Pop())
		}
		for in.coreQ.Len() > 0 {
			lost = append(lost, in.coreQ.Pop())
		}
		for _, q := range in.poolQ {
			for q.Len() > 0 {
				lost = append(lost, q.Pop())
			}
		}
		in.idleThreads = 0
	}
	in.dropped += uint64(len(lost))
	in.inFlight -= len(lost)
	return lost
}

// Restart brings a killed instance back with empty queues and a full
// thread pool. No-op when the instance is up.
func (in *Instance) Restart(now des.Time) {
	if !in.down {
		return
	}
	in.down = false
	in.lastChange = now
	if in.BP.Model == ModelThreaded {
		in.idleThreads = in.BP.Threads
	}
}

// Down reports whether the instance is currently killed.
func (in *Instance) Down() bool { return in.down }

// DownSince reports when the instance was last killed (meaningful only
// while Down). Failure detectors use it to compute detection lag.
func (in *Instance) DownSince() des.Time { return in.downSince }

// dropBatch accounts jobs lost to a kill and notifies the sim layer.
func (in *Instance) dropBatch(now des.Time, batch []*job.Job) {
	in.dropped += uint64(len(batch))
	in.inFlight -= len(batch)
	for _, j := range batch {
		if in.OnJobDrop != nil {
			in.OnJobDrop(now, j)
		}
	}
}

// ---- shared mechanics ----

// advanceBatch moves each job in a simple-model batch to its next stage, or
// completes it.
func (in *Instance) advanceBatch(now des.Time, batch []*job.Job) {
	for _, j := range batch {
		j.StageIdx++
		if j.StageIdx < len(in.BP.Paths[j.PathID].Stages) {
			in.pushToStage(now, j)
		} else {
			in.completeJob(now, j)
		}
	}
}

func (in *Instance) completeJob(now des.Time, j *job.Job) {
	j.Finished = now
	in.completed++
	in.inFlight--
	if j.Outcome != job.OutcomeOK || (j.Req != nil && j.Req.Failed) {
		// The caller stopped waiting (expired deadline, lost hedge
		// race, dead request) while this job was being served: the
		// cores it burned produced a result nobody will read. Client
		// timeouts are excluded — those responses are still delivered
		// and accounted at the timeout value.
		in.wasted++
	}
	if j.Req != nil {
		j.Req.AddTierLatency(in.Tier, now-j.Arrived)
	}
	if in.OnJobDone != nil {
		in.OnJobDone(now, j)
	}
}

// sampleCost draws the batch's processing duration at the current DVFS
// setting: costs scale linearly with nominal/current frequency. Pool
// (I/O) stages are not frequency-scaled.
func (in *Instance) sampleCost(stage int, batch []*job.Job, isPool bool) des.Time {
	st := &in.BP.Stages[stage]
	total := 0.0
	if st.Base != nil {
		total += st.Base.Sample(in.r)
	}
	for _, j := range batch {
		if st.PerJob != nil {
			total += st.PerJob.Sample(in.r)
		}
		total += st.PerKB * j.SizeKB
	}
	if !isPool {
		total *= in.Alloc.SpeedFactor()
	}
	return des.FromNanos(total)
}

func (in *Instance) setBusy(now des.Time, n int) {
	in.busyNsAcc += float64(in.busyCores) * float64(now-in.lastChange)
	in.lastChange = now
	in.busyCores = n
}

// ---- introspection ----

// Completed reports jobs that finished their service-local path.
func (in *Instance) Completed() uint64 { return in.completed }

// Shed reports arrivals rejected by MaxQueue load shedding.
func (in *Instance) Shed() uint64 { return in.shed }

// Dropped reports jobs lost to kills (queued and in-flight).
func (in *Instance) Dropped() uint64 { return in.dropped }

// CanceledEarly reports entry jobs discarded at dequeue because their
// request had already terminated — queueing capacity reclaimed with zero
// service cost.
func (in *Instance) CanceledEarly() uint64 { return in.canceled }

// WastedWork reports jobs served to completion whose result was discarded
// because the caller had stopped waiting.
func (in *Instance) WastedWork() uint64 { return in.wasted }

// InFlight reports jobs currently inside the instance.
func (in *Instance) InFlight() int { return in.inFlight }

// QueueLen reports the total number of queued jobs across stages (plus
// thread/core wait queues in the threaded model).
func (in *Instance) QueueLen() int {
	n := 0
	for _, q := range in.queues {
		n += q.Len()
	}
	if in.BP.Model == ModelThreaded {
		n += in.threadQ.Len() + in.coreQ.Len()
		for _, q := range in.poolQ {
			n += q.Len()
		}
	}
	return n
}

// Utilization reports mean core occupancy in [0,1] up to virtual time now.
func (in *Instance) Utilization(now des.Time) float64 {
	if now <= 0 {
		return 0
	}
	acc := in.busyNsAcc + float64(in.busyCores)*float64(now-in.lastChange)
	return acc / (float64(in.Alloc.Cores) * float64(now))
}

// BusyTime reports accumulated busy core-time up to virtual time now.
// Deltas between two calls give windowed utilization — the signal
// reactive autoscalers act on, where the cumulative mean of Utilization
// would lag the present by the whole run.
func (in *Instance) BusyTime(now des.Time) des.Time {
	return des.Time(in.busyNsAcc + float64(in.busyCores)*float64(now-in.lastChange))
}
