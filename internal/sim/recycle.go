package sim

import (
	"uqsim/internal/des"
	"uqsim/internal/graph"
	"uqsim/internal/job"
)

// Jobs, requests and request state are recycled, each released at the one
// point it dies:
//
//   - A job is owned by whoever will report its fate: the sim while it is
//     being routed, an instance once admitted. It dies when that report
//     arrives — completion (handleJobDone, handleNetDone), loss
//     (failAttemptOrRequest, handleNetDrop), a refused duplicate, or a
//     dequeue-time discard (isCanceledFn) — and releaseJob runs there.
//   - A request, with its reqState, dies when it has terminated
//     (finalizeLeaf, failRequest) and its last job has died, whichever comes
//     later: stray work of timed-out, failed and out-raced attempts reads
//     its request until it finishes.
//
// Timers that are never cancelled (client timeout and retry backoff without
// overload control) and parked connection-pool waiters may outlive their
// request; each carries the request's ID and stands down when the storage
// has moved on to another ID.

// newReqState readies state for a freshly admitted request, reusing
// recycled storage and its slices.
func (s *Sim) newReqState(req *job.Request, tree *graph.Tree, treeIdx int, now des.Time, user int) *reqState {
	var st *reqState
	if n := len(s.freeStates); n > 0 {
		st = s.freeStates[n-1]
		s.freeStates = s.freeStates[:n-1]
		*st = reqState{arrived: st.arrived, tokens: st.tokens[:0], retries: st.retries[:0], calls: st.calls}
	} else {
		st = &reqState{}
	}
	st.req, st.tree, st.treeIdx, st.at, st.user = req, tree, treeIdx, now, user
	if n := len(tree.Nodes); cap(st.arrived) >= n {
		st.arrived = st.arrived[:n]
		clear(st.arrived)
	} else {
		st.arrived = make([]int, n)
	}
	req.Owner = st
	return st
}

// releaseJob recycles a dead job and, when it was the last one of a request
// that has already terminated, the request.
func (s *Sim) releaseJob(j *job.Job) {
	req := j.Req
	if s.poisonReleased {
		dead := j
		j = new(job.Job)
		*j = *dead
		*dead = job.Job{ID: ^job.ID(0), NodeID: -1, PathID: -1, StageIdx: -1, Outcome: ^job.Outcome(0)}
	}
	s.fac.FreeJob(j)
	if req != nil && req.LiveJobs() == 0 && (req.Failed || req.Done()) {
		s.releaseRequest(req)
	}
}

func (s *Sim) releaseRequest(req *job.Request) {
	st := req.Owner.(*reqState)
	if s.poisonReleased {
		// Poison looks alive (not failed, not done) so a stale reader
		// carries on and breaks something visible, and its ID matches no
		// request, so the ID guards still stand down.
		deadReq, deadSt := req, st
		req, st = new(job.Request), new(reqState)
		*req = job.Request{TierLatency: deadReq.TierLatency}
		*deadReq = job.Request{ID: ^job.ID(0), LeavesRemaining: -1 << 40, Outcome: ^job.Outcome(0)}
		*deadSt = reqState{treeIdx: -1, user: -1 << 40}
	}
	s.freeStates = append(s.freeStates, st)
	s.fac.FreeRequest(req)
}
