package sim

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/stats"
)

// This file is the graceful-degradation layer: end-to-end deadline
// propagation (requests carry an absolute deadline; expiry terminates the
// whole subtree and cancels queued-not-started work), hedged requests
// (per-edge backup attempts racing a slow primary), and per-service
// adaptive admission (CoDel sojourn shedding, adaptive LIFO). All three
// are opt-in; with none configured the simulator's hot paths are
// untouched.

// SetQueueDiscipline installs a per-instance entry-queue overload
// discipline on every instance of svc (see fault.QueueDiscipline): CoDel
// sheds jobs whose queueing delay stays above target, adaptive LIFO
// serves the newest job first while the head is stale.
func (s *Sim) SetQueueDiscipline(svc string, d fault.QueueDiscipline) error {
	dep, ok := s.deployments[svc]
	if !ok {
		return fmt.Errorf("sim: queue discipline for undeployed service %q", svc)
	}
	for _, in := range dep.Instances {
		if err := in.SetDiscipline(d); err != nil {
			return err
		}
	}
	if d.Kind != fault.QueueFIFO {
		s.hasDiscipline = true
	}
	return nil
}

// installOverload arms the dequeue-time vetting before a run when any
// overload feature (budget, hedging, discipline) is configured. The
// network-processing instances are deliberately excluded: a message
// silently discarded inside netproc would leak its pending-delivery
// record.
func (s *Sim) installOverload() {
	s.overloadOn = s.hasDiscipline || s.hasHedge || s.clientCfg.Budget != nil
	if !s.overloadOn {
		return
	}
	s.isCanceledFn = func(j *job.Job) bool {
		// Canceled: an abandoned attempt or lost hedge race, or a job of
		// a request that already ended.
		if r := j.Req; j.Outcome == job.OutcomeOK && (r == nil || !(r.Failed || r.Done())) {
			return false
		}
		s.releaseJob(j) // the instance discards it unserved: the job dies here
		return true
	}
	for _, dep := range s.deps {
		for _, in := range dep.Instances {
			in.IsCanceled = s.isCanceledFn
		}
	}
}

// ---- deadline propagation ----

// onDeadline fires when a request's end-to-end budget expires: the whole
// subtree short-circuits — the request is failed now, queued work is
// cancelled (lazily, at dequeue), and pending timers leave the event heap
// via O(log n) cancellation.
func (s *Sim) onDeadline(now des.Time, st *reqState) {
	s.timers[TimerDeadline].Fired++
	s.failRequest(now, st, job.OutcomeDeadline)
}

// cleanupRequest disarms a terminated request's timers, always: deadline,
// client timeout, every pending retry backoff. Under overload control its
// live attempts are abandoned with it; without, they run on and their
// timeouts still observe the edge.
func (s *Sim) cleanupRequest(st *reqState) {
	s.disarm(&st.deadlineEv, TimerDeadline)
	s.disarm(&st.clientTO, TimerClientTimeout)
	for i := len(st.calls) - 1; i >= 0; i-- {
		// Releasing c moves an attempt already passed over into slot i.
		switch c := st.calls[i]; {
		case c.j == nil:
			s.disarm(&c.timer, TimerRetryBackoff)
			s.releaseCall(c)
		case s.overloadOn:
			if c.op != nil {
				s.disarm(&c.op.timer, TimerHedgeTrigger)
			}
			s.abandonCall(c)
		}
	}
}

// handleJobShed fires when an instance's CoDel discipline sheds an
// admitted job at dequeue time: upstream it fails exactly like a
// queue-length shed at admission.
func (s *Sim) handleJobShed(now des.Time, j *job.Job) {
	s.failAttemptOrRequest(now, j, job.OutcomeShed)
}

// ---- hedged requests ----

// hedgeOp is the state of one hedged edge dispatch: a primary attempt, an
// optional backup racing it, and the timer that issues the backup. The
// first response wins; the loser is cancelled (unserved) or its completed
// work discarded. A hedge is an attempt, not an arrival — request
// conservation never sees it. Records are pooled (see recycle.go).
type hedgeOp struct {
	primary *call // nil once the primary failed
	hedge   *call // nil until issued, and again once the hedge failed
	timer   des.Event
	onTimer des.Callback
}

// maybeHedge arms the hedge timer for a freshly issued primary attempt.
// Pinned edges cannot hedge (there is no "different instance"), nor can
// single-instance deployments.
func (s *Sim) maybeHedge(now des.Time, c *call, pinned bool, nInstances int) {
	h := c.pr.pol.Hedge
	if h == nil || pinned || nInstances < 2 {
		return
	}
	delay, ok := s.hedgeDelay(s.nodeOf(c.st, c.nodeID).lat, h)
	if !ok {
		return
	}
	op := s.newHedgeOp(c)
	s.arm(&op.timer, now+delay, op.onTimer, TimerHedgeTrigger)
}

// hedgeDelay resolves the wait before the backup attempt: the edge's
// observed latency quantile (est) once it is warm, else the fixed fallback
// delay; jitter comes from the dedicated hedge RNG stream so hedging never
// perturbs service-time draws.
func (s *Sim) hedgeDelay(est *stats.P2Quantile, h *fault.HedgeSpec) (des.Time, bool) {
	d := h.Delay
	if h.Quantile > 0 && est.Count() >= uint64(h.MinSamplesOrDefault()) {
		d = des.Time(est.Value())
	}
	if d <= 0 {
		return 0, false
	}
	if h.Jitter > 0 {
		d = des.Time(float64(d) * (1 + h.Jitter*(2*s.hedgeRNG.Float64()-1)))
	}
	if d <= 0 {
		return 0, false
	}
	return d, true
}

// onHedgeTimer fires when the primary has been outstanding for the hedge
// delay: issue one backup attempt to a different healthy instance. The
// trigger is disarmed as soon as the primary settles or fails or its request
// terminates, so the race it finds is undecided.
func (s *Sim) onHedgeTimer(now des.Time, op *hedgeOp) {
	s.timers[TimerHedgeTrigger].Fired++
	c := op.primary
	st := c.st
	nd := s.nodeOf(st, c.nodeID)
	probe := false
	if c.pr.brk != nil {
		probe = c.pr.brk.State(now) == fault.BreakerHalfOpen
		if !c.pr.brk.Allow(now) {
			return // the edge is failing fast; don't add hedge load
		}
	}
	in := s.pickAvoiding(nd.dep, c.inst)
	if in == nil {
		return // no distinct healthy instance to race against
	}
	j := s.newNodeJob(&st.Request, c.nodeID, c.conn, nd)
	h := s.newCall(st, c.nodeID, c.conn, c.src, c.attempt, c.pr)
	h.isHedge, h.op, op.hedge = true, op, h
	s.issue(now, h, j, in, probe)
	s.hedgesN++
	s.depErrs(nd.dep).Hedges++
	s.deliver(now, j, nd.dep, in, c.src)
}

// pickAvoiding selects a healthy instance other than avoid, scanning
// round-robin from the deployment's rotating cursor over the maintained
// healthy set (ejected and retired instances never receive hedges). Nil
// when no distinct healthy instance exists.
func (s *Sim) pickAvoiding(dep *Deployment, avoid *service.Instance) *service.Instance {
	n := len(dep.healthy)
	if n < 1 || (n == 1 && dep.healthy[0] == avoid) {
		return nil
	}
	start := dep.rr % n
	dep.rr++
	for i := 0; i < n; i++ {
		in := dep.healthy[(start+i)%n]
		if in != avoid {
			return in
		}
	}
	return nil
}

// settleHedge resolves a hedge race in favor of the winning call: the
// timer is disarmed and the loser, if still racing, is abandoned.
func (s *Sim) settleHedge(now des.Time, winner *call) {
	op := winner.op
	if op == nil {
		return
	}
	s.disarm(&op.timer, TimerHedgeTrigger)
	loser := op.hedge
	if winner.isHedge {
		s.hedgeWins++
		loser = op.primary
	}
	if loser != nil && loser != winner {
		s.abandonCall(loser)
	}
}

// abandonCall kills a live attempt that lost its race or its request: its
// timeout is cancelled, its job marked canceled — discarded unserved at
// dequeue, or counted as wasted work if already on a core.
func (s *Sim) abandonCall(c *call) {
	s.disarm(&c.timer, TimerAttemptTimeout)
	if c.isProbe && c.pr.brk != nil {
		// The half-open probe dies without an outcome; release the slot or
		// the breaker refuses every future call.
		c.pr.brk.CancelProbe()
	}
	c.j.Outcome = job.OutcomeCanceled
	s.unlink(c)
	s.releaseCall(c)
}

// failCall routes one failed attempt (timeout, shed, drop) through the
// hedge state machine: a failed hedge is absorbed while the primary still
// races; a failed primary promotes a live hedge to sole attempt; only
// when no side is left does the edge fall back to retry-or-fail. The
// caller has already unlinked c from its job and fed the breaker.
func (s *Sim) failCall(now des.Time, c *call, out job.Outcome) {
	if op := c.op; op != nil {
		other := op.hedge
		if c.isHedge {
			other = op.primary
		}
		if other != nil {
			// A failed hedge is absorbed, the primary still races; a failed
			// primary leaves the hedge promoted to sole attempt.
			s.countError(s.depErrs(s.nodeOf(c.st, c.nodeID).dep), out)
			s.releaseCall(c)
			return
		}
		s.disarm(&op.timer, TimerHedgeTrigger) // no backup is coming
	}
	s.retryOrFail(now, c, out)
}
