package sim

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/service"
)

// Jobs, request blocks, attempt records, hedge races and delayed deliveries
// are recycled, each released at the one point it dies:
//
//   - A job is owned by whoever will report its fate: the sim while it is
//     being routed, an instance once admitted. It dies when that report
//     arrives — completion (handleJobDone, handleNetDone), loss
//     (failAttemptOrRequest, handleNetDrop), a refused duplicate, or a
//     dequeue-time discard (overload.isCanceled) — and releaseJob runs there.
//   - A request block (reqState, the request embedded) dies when it has
//     terminated (finalizeLeaf, failRequest) and its last job has died,
//     whichever comes later: stray work of timed-out, failed and out-raced
//     attempts reads its request until it finishes.
//   - A timer's des.Event lives in the record it guards (reqState, call,
//     hedgeOp), and a record is released only with its events out of the
//     queue. One rule makes that hold: a request's timers are disarmed when
//     it terminates (cleanupRequest). Without overload control its live
//     attempts, and their timeouts, run on: each still has its job, and the
//     job keeps the request.
//   - A call belongs to its request (reqState.calls) from dispatch until its
//     attempt settles, fails for good or is abandoned, or the request
//     terminates; while the attempt is live its job points at it
//     (Job.Owner), and that link is cut before either is released. Only an
//     orphan outlives its request — no overload control, request over, job
//     lost, timeout still owed: cut from both, it is released by its
//     timeout, which reads neither.
//   - A hedgeOp goes when the second of its calls leaves the race; a hop as
//     its delay runs out.
//
// Parked connection-pool waiters may outlive their request; each carries
// the request's ID and stands down when its block has moved on to another
// ID.

// newReqState readies a block for a freshly admitted request, reusing
// recycled storage and its slices. A recycled block is reset in place:
// InitRequest resets its request once, and the rest is rewritten here or
// needs no reset (its timers left the queue and its calls its list before
// releaseRequest, and trackLive sets its slot).
func (s *Sim) newReqState(tree *graph.Tree, now des.Time, user int) *reqState {
	st := s.states.Get()
	if st.Owner == nil { // fresh from the slab
		st.Owner, st.sim = st, s
	}
	s.fac.InitRequest(&st.Request, now)
	st.tree, st.user, st.tokens = tree, int32(user), st.tokens[:0]
	if n := len(tree.Nodes); cap(st.arrived) >= n {
		st.arrived = st.arrived[:n]
		clear(st.arrived)
	} else {
		st.arrived = make([]int, n)
	}
	return st
}

// releaseJob recycles a dead job and, when it was the last one of a request
// that has already terminated, the request.
func (s *Sim) releaseJob(j *job.Job) {
	if j.Owner != nil {
		panic(fmt.Sprintf("sim: job %d released while its attempt is live", j.ID))
	}
	req := j.Req
	if s.poisonReleased {
		dead := j
		j = new(job.Job)
		*j = *dead
		*dead = job.Job{ID: ^job.ID(0), NodeID: -1, PathID: -1, StageIdx: -1, Outcome: ^job.Outcome(0)}
	}
	s.fac.FreeJob(j)
	if req != nil && req.LiveJobs() == 0 && (req.Failed || req.Done()) {
		s.releaseRequest(req.Owner.(*reqState))
	}
}

func (s *Sim) releaseRequest(st *reqState) {
	if len(st.calls) > 0 || st.deadlineEv.Pending() || st.clientTO.Pending() {
		panic(fmt.Sprintf("sim: request %d released with %d calls or a timer still armed", st.ID, len(st.calls)))
	}
	if s.poisonReleased {
		// Poison looks alive (not failed, not done) so a stale reader
		// carries on and breaks something visible, and its ID matches no
		// request, so the ID guards still stand down.
		*st = reqState{Request: job.Request{ID: ^job.ID(0), Class: -1, LeavesRemaining: -1 << 30, Outcome: ^job.Outcome(0)},
			user: -1 << 30, slot: 1 << 30}
		return
	}
	s.states.Put(st)
}

// newCall readies the record of one dispatch over a guarded edge and puts
// it on its request's list.
func (s *Sim) newCall(st *reqState, nodeID, conn int, src *cluster.Machine, attempt int, pr *policyRuntime) *call {
	c := s.calls.Get()
	c.sim = s
	c.st, c.nodeID, c.conn, c.src, c.attempt, c.pr = st, nodeID, conn, src, attempt, pr
	c.slot = len(st.calls)
	st.calls = append(st.calls, c)
	return c
}

// untrack takes c off its request's list.
func untrack(c *call) {
	if c.slot < 0 {
		return
	}
	calls := c.st.calls
	last := calls[len(calls)-1]
	calls[c.slot], last.slot = last, c.slot
	c.st.calls = calls[:len(calls)-1]
	c.slot = -1
}

// releaseCall recycles a call whose attempt is over (unlinked from its job)
// and whose timer is out of the queue.
func (s *Sim) releaseCall(c *call) {
	if c.j != nil || c.timer.Pending() {
		panic("sim: call released with its attempt live or its timer armed")
	}
	untrack(c)
	s.leaveRace(c)
	if s.poisonReleased {
		// Poison looks like a live, tracked attempt of a live request, so a
		// stale reader acts on it; every pointer it would follow is nil.
		*c = call{st: &reqState{Request: job.Request{ID: ^job.ID(0), Class: -1}}, j: &job.Job{ID: ^job.ID(0)}, slot: 1 << 30, attempt: -1 << 30}
		return
	}
	s.calls.Put(c) // newCall and issue rewrite every field
}

// newHedgeOp readies the race record of primary attempt c.
func (s *Sim) newHedgeOp(c *call) *hedgeOp {
	op := s.ops.Get()
	op.sim, op.primary, c.op = s, c, op
	return op
}

// leaveRace ends c's part in its hedge race, if it has one, and recycles
// the race once neither side is left in it.
func (s *Sim) leaveRace(c *call) {
	op := c.op
	if op == nil {
		return
	}
	c.op, c.isHedge = nil, false
	if op.primary == c {
		op.primary = nil
	} else if op.hedge == c {
		op.hedge = nil
	}
	if op.primary != nil || op.hedge != nil {
		return
	}
	if op.timer.Pending() {
		panic("sim: hedge race released with its trigger armed")
	}
	if s.poisonReleased {
		*op = hedgeOp{primary: &call{slot: 1 << 30}} // looks like a race its primary is still in
		return
	}
	*op = hedgeOp{}
	s.ops.Put(op)
}

// hop is a delivery waiting out a delay: injected edge latency or a fluid-tier
// wait ahead of deliverDirect, or WAN transit (routed) ahead of admitDelivery.
type hop struct {
	sim    *Sim
	j      *job.Job
	dep    *Deployment
	in     *service.Instance
	src    *cluster.Machine
	routed bool
}

// newHop readies a hop, the handler of its delay's end.
func (s *Sim) newHop(j *job.Job, dep *Deployment, in *service.Instance, src *cluster.Machine, routed bool) *hop {
	h := s.hops.Get()
	*h = hop{s, j, dep, in, src, routed}
	return h
}

// Fire releases the hop before the delivery goes on.
func (h *hop) Fire(now des.Time, _ des.Kind) {
	s, j, dep, in, src, routed := h.sim, h.j, h.dep, h.in, h.src, h.routed
	s.hops.Put(h)
	if routed {
		s.admitDelivery(now, j, in, src)
	} else {
		s.deliverDirect(now, j, dep, in, src)
	}
}
