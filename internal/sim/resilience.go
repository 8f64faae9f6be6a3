package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/rng"
	"uqsim/internal/service"
)

// This file enforces per-edge RPC resilience policies (internal/fault) at
// the layer where child RPCs are issued: attempt timeouts, backoff retries
// against healthy instances, circuit breaking, and upstream propagation of
// sheds and crash-induced drops. Edges without a policy keep the original
// fast path; a request on a policy edge gets a call record per dispatch.

// policies is the resilience feature: the installed per-edge policies, the
// retry backoff's stream and the retry count. Nil until the first
// SetServicePolicy or SetNodePolicy.
type policies struct {
	svc      map[string]*policyRuntime
	node     map[[2]int]*policyRuntime // [tree,node] override
	retryRNG *rng.Source
	retriesN uint64
}

// policyState returns the resilience feature, creating it on first use.
func (s *Sim) policyState() *policies {
	if s.pol == nil {
		s.pol = &policies{
			svc:      make(map[string]*policyRuntime),
			node:     make(map[[2]int]*policyRuntime),
			retryRNG: s.split.Stream("retry"),
		}
	}
	return s.pol
}

// hedges reports whether an installed policy hedges.
func (p *policies) hedges() bool {
	for _, pr := range p.svc {
		if pr.pol.Hedge != nil {
			return true
		}
	}
	for _, pr := range p.node {
		if pr.pol.Hedge != nil {
			return true
		}
	}
	return false
}

func (p *policies) report(r *Report) { r.Retries = p.retriesN }

// policyRuntime is one installed policy plus its breaker instance.
type policyRuntime struct {
	pol fault.Policy
	brk *fault.Breaker
}

func newPolicyRuntime(p fault.Policy) *policyRuntime {
	pr := &policyRuntime{pol: p}
	if p.Breaker != nil {
		pr.brk = fault.NewBreaker(*p.Breaker)
	}
	return pr
}

// record feeds the edge's breaker, if it has one, an attempt's outcome.
func (pr *policyRuntime) record(now des.Time, failed bool) {
	if pr.brk != nil {
		pr.brk.Record(now, failed)
	}
}

// call is one dispatch over a policy-guarded edge: the live attempt, or
// the retry backoff after a failed one. Its job reaches it through
// Job.Owner, its request through reqState.calls, and it carries everything
// needed to re-issue the edge. Records are pooled (see recycle.go).
type call struct {
	st      *reqState
	nodeID  int
	conn    int
	src     *cluster.Machine
	attempt int
	pr      *policyRuntime
	slot    int // index in st.calls; -1 once the request no longer reaches it

	// timer is the attempt's edge timeout while the attempt is live (or an
	// orphan's timeout is still owed), the retry backoff after it failed.
	timer                des.Event
	onTimeout, onBackoff des.Callback

	// The live attempt: its job (nil during backoff, and for an orphan,
	// whose job died with the timeout still owed), issue time and target
	// instance, and the hedge race it participates in, if any.
	j       *job.Job
	start   des.Time
	inst    *service.Instance
	isHedge bool
	op      *hedgeOp

	// isProbe marks the single call a half-open breaker admitted. If the
	// attempt is torn down without an outcome (deadline expiry, hedge-race
	// loss), the probe slot must be released or the breaker starves.
	isProbe bool
}

// ErrorCounts breaks down failed call attempts against one target service.
type ErrorCounts struct {
	// Timeouts counts attempts abandoned by an edge timeout.
	Timeouts uint64
	// Shed counts attempts rejected by queue-length load shedding.
	Shed uint64
	// Dropped counts attempts lost to killed instances or crashed machines
	// (including "no healthy instance" dispatch failures).
	Dropped uint64
	// BreakerOpen counts calls failed fast by an open circuit breaker.
	BreakerOpen uint64
	// Retries counts policy-driven attempt re-issues.
	Retries uint64
	// Hedges counts backup attempts issued by the hedging policy.
	Hedges uint64
	// Unreachable counts attempts failed fast by the network fault
	// model: a severed machine pair or a gray-link message drop.
	Unreachable uint64
}

// SetServicePolicy guards every topology edge calling into service svc with
// the given resilience policy. The service must already be deployed. A
// single breaker instance covers the whole edge (all callers of svc), which
// matches a service-mesh sidecar's view of the destination.
func (s *Sim) SetServicePolicy(svc string, p fault.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, ok := s.deployments[svc]; !ok {
		return fmt.Errorf("sim: policy for undeployed service %q", svc)
	}
	s.policyState().svc[svc] = newPolicyRuntime(p)
	return nil
}

// SetNodePolicy overrides the service-level policy for one path-tree node
// (the edge into that node). Call after SetTopology.
func (s *Sim) SetNodePolicy(tree string, nodeID int, p fault.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if s.topo == nil {
		return fmt.Errorf("sim: node policy needs a topology (call SetTopology first)")
	}
	ti := slices.IndexFunc(s.topo.Trees, func(t graph.Tree) bool { return t.Name == tree })
	if ti < 0 {
		return fmt.Errorf("sim: node policy references unknown tree %q", tree)
	}
	if nodeID < 0 || nodeID >= len(s.topo.Trees[ti].Nodes) {
		return fmt.Errorf("sim: tree %q has no node %d", tree, nodeID)
	}
	s.policyState().node[[2]int{ti, nodeID}] = newPolicyRuntime(p)
	return nil
}

// SetMaxQueue enables queue-length load shedding on every instance of svc:
// arrivals beyond max queued jobs are rejected immediately instead of
// queueing unboundedly.
func (s *Sim) SetMaxQueue(svc string, max int) error {
	dep, ok := s.deployments[svc]
	if !ok {
		return fmt.Errorf("sim: max queue for undeployed service %q", svc)
	}
	if max < 0 {
		return fmt.Errorf("sim: max queue %d negative", max)
	}
	for _, in := range dep.Instances {
		in.MaxQueue = max
	}
	return nil
}

// edgePolicy resolves the policy guarding tree node nodeID of service svc
// (nil: none). Node overrides win over service-level policies; node -1
// asks for the service-level one.
func (s *Sim) edgePolicy(treeIdx, nodeID int, svc string) *policyRuntime {
	if s.pol == nil {
		return nil
	}
	if pr, ok := s.pol.node[[2]int{treeIdx, nodeID}]; ok {
		return pr
	}
	return s.pol.svc[svc]
}

// startAttempt issues the attempt c describes, for a request that is live
// and inside its deadline: dispatchNode checked, a backoff never outlives it.
func (s *Sim) startAttempt(now des.Time, c *call) {
	node, nd := &c.st.tree.Nodes[c.nodeID], s.nodeOf(c.st, c.nodeID)
	probe := false
	if brk := c.pr.brk; brk != nil {
		// State before Allow: an admitted half-open call is the probe.
		probe = brk.State(now) == fault.BreakerHalfOpen
		if !brk.Allow(now) {
			s.countError(s.depErrs(nd.dep), job.OutcomeBreakerOpen)
			s.failRequest(now, c.st, job.OutcomeBreakerOpen) // takes c back
			return
		}
	}
	in := s.pickFor(node, nd.dep, c.src)
	if in == nil {
		// No healthy instance: an instant connection failure.
		c.pr.record(now, true)
		s.retryOrFail(now, c, job.OutcomeDropped)
		return
	}
	j := s.newNodeJob(&c.st.Request, c.nodeID, c.conn, nd)
	s.issue(now, c, j, in, probe)
	s.maybeHedge(now, c, node.Instance >= 0, len(nd.dep.Instances))
	s.deliver(now, j, nd.dep, in, c.src)
}

// issue makes c the live attempt that j carries to instance in, and arms
// its edge timeout.
func (s *Sim) issue(now des.Time, c *call, j *job.Job, in *service.Instance, probe bool) {
	c.j, c.start, c.inst, c.isProbe = j, now, in, probe
	j.Owner = c
	s.liveCalls++
	if t := c.pr.pol.Timeout; t > 0 {
		s.arm(&c.timer, now+t, c.onTimeout, TimerAttemptTimeout)
	}
}

// unlink ends a live attempt: its job no longer reaches the record.
func (s *Sim) unlink(c *call) {
	c.j.Owner = nil
	c.j = nil
	s.liveCalls--
}

// onAttemptTimeout fires when an attempt outlives its edge timeout: the
// caller abandons it (the server-side work keeps running, its result
// discarded) and retries or fails the request.
func (s *Sim) onAttemptTimeout(now des.Time, c *call) {
	s.timers[TimerAttemptTimeout].Fired++
	// An orphan's job was lost after its request had ended: nothing is
	// left to abandon, but the edge still observes the timeout.
	orphan := c.j == nil
	if orphan {
		s.liveCalls--
	} else {
		c.j.Outcome = job.OutcomeTimeout
		s.unlink(c)
	}
	s.observeCall(now, c.inst, false, c.pr.pol.Timeout)
	c.pr.record(now, true)
	if orphan || c.st.Failed || c.st.Done() {
		s.releaseCall(c)
		return
	}
	s.failCall(now, c, job.OutcomeTimeout)
}

// retryOrFail re-issues the failed edge c describes after exponential
// backoff, waited out on the same record, or fails the request once retries
// are exhausted. out is the failure that triggered it (used for accounting
// and, terminally, the request outcome).
func (s *Sim) retryOrFail(now des.Time, c *call, out job.Outcome) {
	ec := s.depErrs(s.nodeOf(c.st, c.nodeID).dep)
	s.countError(ec, out)
	s.leaveRace(c)
	if c.attempt < c.pr.pol.MaxRetries {
		s.pol.retriesN++
		ec.Retries++
		delay := c.pr.pol.Backoff(c.attempt+1, s.pol.retryRNG)
		s.arm(&c.timer, now+delay, c.onBackoff, TimerRetryBackoff)
		return
	}
	s.failRequest(now, c.st, out) // takes c back
}

func (s *Sim) onBackoff(now des.Time, c *call) {
	s.timers[TimerRetryBackoff].Fired++
	c.attempt++
	s.startAttempt(now, c)
}

// settleCall closes a live attempt whose job completed in time: cancel the
// timeout, feed the breaker a success, record the observed edge latency
// for quantile-based hedging, and resolve any hedge race in its favor.
func (s *Sim) settleCall(now des.Time, c *call) {
	s.disarm(&c.timer, TimerAttemptTimeout)
	s.unlink(c)
	s.observeCall(now, c.inst, true, now-c.start)
	c.pr.record(now, false)
	if h := c.pr.pol.Hedge; h != nil && h.Quantile > 0 {
		s.nodeOf(c.st, c.nodeID).lat.Add(float64(now - c.start))
	}
	s.settleHedge(now, c)
	s.releaseCall(c)
}

// failAttemptOrRequest propagates one dead job upstream: a policy-guarded
// edge retries or fails; an unguarded edge fails the whole request. Jobs of
// already-abandoned attempts (edge timeout fired) or finished requests are
// discarded silently — their edge has moved on. Either way the job dies
// here.
func (s *Sim) failAttemptOrRequest(now des.Time, j *job.Job, out job.Outcome) {
	defer s.releaseJob(j)
	// An attempt already abandoned by its edge (timeout fired, hedge race
	// lost) must never overwrite its outcome or touch the live request.
	abandoned := j.Outcome != job.OutcomeOK
	if !abandoned {
		j.Outcome = out
		// One failure observation per live attempt: abandoned attempts
		// already reported theirs at the abandonment instant.
		s.observeCall(now, servedBy(j), false, 0)
	}
	req := j.Req
	c, _ := j.Owner.(*call)
	if req == nil || req.Failed || req.Done() || abandoned {
		if c != nil {
			// An orphan: only the attempt's timeout is still owed.
			j.Owner, c.j = nil, nil
			untrack(c)
			if !c.timer.Pending() {
				s.liveCalls--
				s.releaseCall(c)
			}
		}
		return
	}
	if c != nil {
		s.disarm(&c.timer, TimerAttemptTimeout)
		s.unlink(c)
		c.pr.record(now, true)
		s.failCall(now, c, out)
		return
	}
	st := req.Owner.(*reqState)
	s.countError(s.depErrs(s.nodeOf(st, j.NodeID).dep), out)
	s.failRequest(now, st, out)
}

// deliveryRejected handles a job refused at admission: a down instance
// (kill/crash) or queue-length load shedding.
func (s *Sim) deliveryRejected(now des.Time, j *job.Job, res service.AdmitResult) {
	out := job.OutcomeDropped
	if res == service.RejectedQueue {
		out = job.OutcomeShed
	}
	s.failAttemptOrRequest(now, j, out)
}

// handleJobDrop fires for every job lost inside a killed instance (queued
// at kill time, or in-flight when its stale completion event fires).
func (s *Sim) handleJobDrop(now des.Time, j *job.Job) {
	s.failAttemptOrRequest(now, j, job.OutcomeDropped)
}

// handleNetDrop fires for jobs lost inside a killed network-processing
// service (machine crash): an RPC in transit fails like any dead attempt; a
// response in transit is lost on the wire, so the request never completes
// and is dropped.
func (s *Sim) handleNetDrop(now des.Time, j *job.Job) {
	if s.unpark(j) != nil {
		s.failAttemptOrRequest(now, j, job.OutcomeDropped)
		return
	}
	if req := j.Req; req != nil && !req.Failed && !req.Done() {
		s.countError(s.errCount("netproc"), job.OutcomeDropped)
		s.failRequest(now, req.Owner.(*reqState), job.OutcomeDropped)
	}
	s.releaseJob(j)
}

// failRequest terminates a request with an error: it leaves the system now
// (conn-pool tokens released, closed-loop user freed) and is counted in the
// slot the outcome table names for out (job.Outcome.Counted), keeping the
// conservation identity (validate.Leaked). Stray server-side work of the
// request is discarded as it surfaces.
func (s *Sim) failRequest(now des.Time, st *reqState, out job.Outcome) {
	if st.Failed || st.Done() {
		return
	}
	st.Failed = true
	st.Outcome = out
	s.exit(now, st, out.Counted())
}

// errCount returns svc's error-counter record, creating it on first use.
func (s *Sim) errCount(svc string) *ErrorCounts {
	ec, ok := s.errCounts[svc]
	if !ok {
		ec = &ErrorCounts{}
		s.errCounts[svc] = ec
	}
	return ec
}

// depErrs is errCount for a deployment, kept on it after the first use.
func (s *Sim) depErrs(dep *Deployment) *ErrorCounts {
	if dep.errs == nil {
		dep.errs = s.errCount(dep.Name)
	}
	return dep.errs
}

// BreakerInfo is one circuit breaker's externally visible state, for
// monitors and liveness invariants ("no breaker stays open forever").
type BreakerInfo struct {
	// Edge names the guarded edge: "svc:<service>" for service-level
	// policies, "node:<tree index>/<node>" for per-node overrides.
	Edge string
	// State is the breaker's state at the engine's current virtual time.
	State fault.BreakerState
	// Probing reports an outstanding half-open probe. Half-open with
	// Probing set but no live call is a starved breaker.
	Probing bool
	// Trips counts how many times the breaker has opened.
	Trips uint64
}

// Breakers reports every installed circuit breaker in deterministic order
// (service edges sorted by name, then node overrides by tree and node).
func (s *Sim) Breakers() []BreakerInfo {
	if s.pol == nil {
		return nil
	}
	now := s.eng.Now()
	var out []BreakerInfo
	add := func(edge string, pr *policyRuntime) {
		if brk := pr.brk; brk != nil {
			out = append(out, BreakerInfo{Edge: edge, State: brk.State(now), Probing: brk.Probing(), Trips: brk.Trips()})
		}
	}
	svcs := make([]string, 0, len(s.pol.svc))
	for name := range s.pol.svc {
		svcs = append(svcs, name)
	}
	sort.Strings(svcs)
	for _, name := range svcs {
		add("svc:"+name, s.pol.svc[name])
	}
	nodes := make([][2]int, 0, len(s.pol.node))
	for key := range s.pol.node {
		nodes = append(nodes, key)
	}
	slices.SortFunc(nodes, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, key := range nodes {
		add(fmt.Sprintf("node:%d/%d", key[0], key[1]), s.pol.node[key])
	}
	return out
}

// countError accrues one failed attempt on ec, in the field its outcome
// names; an outcome without one (a drop, an expired deadline) is Dropped.
func (s *Sim) countError(ec *ErrorCounts, out job.Outcome) {
	field := [job.NumOutcomes]*uint64{
		job.OutcomeTimeout:     &ec.Timeouts,
		job.OutcomeShed:        &ec.Shed,
		job.OutcomeBreakerOpen: &ec.BreakerOpen,
		job.OutcomeUnreachable: &ec.Unreachable,
	}[out]
	if field == nil {
		field = &ec.Dropped
	}
	*field++
}
