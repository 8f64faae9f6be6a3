package sim

import (
	"fmt"
	"slices"

	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/rng"
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
	return nil
}

// overload is the overload-control feature. Run creates it when an
// installed policy hedges, an instance has a non-FIFO discipline, or the
// client has a budget; without it a terminated request's attempts run on.
type overload struct {
	hedgeRNG, budgetRNG *rng.Source
	hedgesN, hedgeWins  uint64
}

// installOverload creates the overload feature when one of its triggers
// is configured.
func (s *Sim) installOverload() {
	on := s.clientCfg.Budget != nil || s.pol != nil && s.pol.hedges()
	for _, dep := range s.deps {
		on = on || slices.ContainsFunc(dep.Instances, func(in *service.Instance) bool {
			return in.Discipline().Kind != fault.QueueFIFO
		})
	}
	if on {
		s.overloadState()
	}
}

// overloadState returns the overload feature, creating it on first use: at
// Run, or at the first draw of a client budget installed mid-run. Hedging
// needs no such path: Run resolves every edge's policy once, after which a
// new policy guards nothing. Creating it installs dequeue-time vetting on
// every deployed instance, the one place that does; a replica added later
// inherits it from its first sibling (addInstance). The network-processing
// instances are deliberately left out: a message silently discarded inside
// netproc would leak its pending-delivery record.
func (s *Sim) overloadState() *overload {
	if s.ovl != nil {
		return s.ovl
	}
	s.ovl = &overload{hedgeRNG: s.split.Stream("hedge"), budgetRNG: s.split.Stream("budget")}
	isCanceled := func(j *job.Job) bool {
		// Canceled: an abandoned attempt or lost hedge race, or a job of a
		// request that already ended.
		if r := j.Req; j.Outcome == job.OutcomeOK && (r == nil || !(r.Failed || r.Done())) {
			return false
		}
		s.releaseJob(j) // the instance discards it unserved: the job dies here
		return true
	}
	for _, dep := range s.deps {
		for _, in := range dep.Instances {
			in.IsCanceled = isCanceled
		}
	}
	return s.ovl
}

func (o *overload) report(r *Report) { r.HedgesIssued, r.HedgeWins = o.hedgesN, o.hedgeWins }

// ---- deadline propagation ----

// armBudget samples a fresh request's end-to-end budget and, when it has
// one, arms its deadline.
func (s *Sim) armBudget(now des.Time, st *reqState) {
	b := s.clientCfg.Budget.Sample(s.overloadState().budgetRNG)
	if b <= 0 {
		return
	}
	st.Deadline = now + des.FromNanos(b)
	if st.onDeadline == nil {
		st.onDeadline = func(t des.Time) { s.onDeadline(t, st) }
	}
	s.arm(&st.deadlineEv, st.Deadline, st.onDeadline, TimerDeadline)
}

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
		case s.ovl != nil:
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
	delay := s.hedgeDelay(s.nodeOf(c.st, c.nodeID).lat, h)
	if delay <= 0 {
		return
	}
	op := s.newHedgeOp(c)
	s.arm(&op.timer, now+delay, op.onTimer, TimerHedgeTrigger)
}

// hedgeDelay resolves the wait before the backup attempt: the edge's
// observed latency quantile (est) once it is warm, else the fixed fallback
// delay; jitter comes from the dedicated hedge RNG stream so hedging never
// perturbs service-time draws.
func (s *Sim) hedgeDelay(est *stats.P2Quantile, h *fault.HedgeSpec) des.Time {
	d := h.Delay
	if h.Quantile > 0 && est.Count() >= uint64(h.MinSamplesOrDefault()) {
		d = des.Time(est.Value())
	}
	if d > 0 && h.Jitter > 0 {
		d = des.Time(float64(d) * (1 + h.Jitter*(2*s.ovl.hedgeRNG.Float64()-1)))
	}
	return d // <= 0: no hedge
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
	s.ovl.hedgesN++
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
		s.ovl.hedgeWins++
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
