package sim

import (
	"fmt"
	"slices"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/job"
	"uqsim/internal/service"
	"uqsim/internal/stats"
	"uqsim/internal/workload"
)

// Run executes the simulation: warmup (not measured), then duration
// (measured), and returns the report. Run may be called once per Sim; a
// second call, once a first got past setup validation, returns an error.
func (s *Sim) Run(warmup, duration des.Time) (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice; a Sim runs once")
	}
	if s.topo == nil {
		return nil, fmt.Errorf("sim: no topology installed")
	}
	if s.clientCfg.Pattern == nil && s.clientCfg.ClosedUsers <= 0 && s.clientCfg.Sessions == nil {
		return nil, fmt.Errorf("sim: no client installed")
	}
	if err := s.resolve(); err != nil {
		return nil, err
	}
	pat, err := s.loadPattern()
	if err != nil {
		return nil, err
	}
	s.ran = true
	s.warmupEnd = warmup
	horizon := warmup + duration
	s.installOverload()
	if s.fluid != nil {
		if pat, err = s.setupHybrid(warmup, pat); err != nil {
			return nil, err
		}
	}

	arrive := func(now des.Time) { s.admit(now, 0, -1, -1) }
	if s.clientCfg.ClosedUsers > 0 {
		s.closedLoop = workload.NewClosedLoop(s.eng, s.clientRNG, s.clientCfg.ClosedUsers, arrive)
		if think := s.clientCfg.Think; think != nil {
			s.closedLoop.Think = think.Sample
		}
		s.closedLoop.Start(0)
	} else if s.clientCfg.Sessions != nil {
		for _, jn := range s.clientCfg.Sessions.Journeys {
			for _, step := range jn.Steps {
				if step.Tree < 0 || step.Tree >= len(s.topo.Trees) {
					return nil, fmt.Errorf("sim: session journey %q targets tree %d, topology has %d",
						jn.Name, step.Tree, len(s.topo.Trees))
				}
			}
		}
		sess, err := workload.NewSessions(s.eng, s.split.Child("sessions"), *s.clientCfg.Sessions,
			func(now des.Time, user, tree int) { s.admit(now, 0, tree, user) })
		if err != nil {
			return nil, err
		}
		if s.fluid != nil {
			s.fluid.sampleUsers(sess, s.split)
		}
		s.sessions = sess
		sess.Start(0)
		defer sess.Stop()
	} else {
		gen := workload.NewOpenLoop(s.eng, s.clientRNG, pat, arrive)
		gen.Proc = s.clientCfg.Proc
		gen.Start(0)
		defer gen.Stop()
	}

	s.eng.RunUntil(horizon)
	// A Stop (signal handler, watchdog) freezes the clock short of the
	// horizon; the partial report covers what actually ran.
	end := horizon
	if now := s.eng.Now(); s.eng.Stopped() && now < horizon {
		end = now
	}
	if s.fluid != nil {
		s.fluid.Finish(end)
	}
	s.windowEnd = end
	return s.report(end), nil
}

// admit starts one request at virtual time now: attempt 0 from the client,
// or a client retry (attempt > 0). tree >= 0 pins the topology tree
// (session journey steps target specific trees; -1 samples the client's
// tree choice), and user >= 0 ties the request to the session user whose
// journey advances when it terminates.
func (s *Sim) admit(now des.Time, attempt, tree, user int) {
	if tree < 0 {
		tree = 0
		if s.treeChoice.N() > 1 {
			tree = s.treeChoice.Pick(s.clientRNG)
		}
	}
	t := &s.topo.Trees[tree]

	st := s.newReqState(t, now, user)
	st.Class = tree
	st.Attempt = attempt
	if s.clientCfg.SizeKB != nil {
		st.SizeKB = s.clientCfg.SizeKB.Sample(s.clientRNG)
	}
	st.Conn = int(st.ID) % s.clientCfg.Connections
	st.LeavesRemaining = len(t.Leaves())

	s.trackLive(st)
	if now >= s.warmupEnd {
		s.arrivals++
	}
	if s.clientCfg.Budget != nil {
		s.armBudget(now, st)
	}
	if s.clientCfg.Timeout > 0 {
		if st.onClientTO == nil {
			st.onClientTO = func(t des.Time) { s.onTimeout(t, st) }
		}
		s.arm(&st.clientTO, now+s.clientCfg.Timeout, st.onClientTO, TimerClientTimeout)
	}
	s.enterNode(now, st, t.Root, 0, st.Conn, nil)
}

// onTimeout fires when a request exceeds the client's patience: the client
// records the timeout as its observed latency and possibly retries, while
// the in-flight server work continues to completion.
func (s *Sim) onTimeout(now des.Time, st *reqState) {
	s.timers[TimerClientTimeout].Fired++
	st.TimedOut = true
	user, tree := -1, -1
	if st.slot >= 0 && st.user >= 0 {
		user, tree = st.user, st.Class
	}
	// The latency sample belongs to the measurement window it lands in,
	// the outcome to its arrival.
	if now >= s.warmupEnd && now <= s.windowEnd {
		s.latency.Record(s.clientCfg.Timeout)
	}
	if st.Arrival >= s.warmupEnd {
		s.outcomes[job.OutcomeTimeout]++
	}
	if st.Attempt < s.clientCfg.MaxRetries {
		// A session user's retry stays on the same journey step (same
		// tree, same user); an anonymous client re-samples the tree.
		s.admit(now, st.Attempt+1, tree, user)
	} else {
		// The user gives up and moves on.
		s.advanceUser(now, user)
	}
}

// advanceUser moves a finished request's closed-loop or session user on.
func (s *Sim) advanceUser(now des.Time, user int) {
	if s.closedLoop != nil {
		s.closedLoop.RequestDone(now)
	} else if s.sessions != nil && user >= 0 {
		s.sessions.Done(now, user)
	}
}

// exit takes a completed or failed request out of the system and counts it
// in outcome slot out. A failed request leaves in one step, wherever it was
// in its acquire chain: every token it holds goes back, pool by pool. A
// client-timed-out request was already counted, and its user moved on, at
// the timeout instant (onTimeout). The block is released once no job of
// the request is left; else the last stray job to die releases it.
func (s *Sim) exit(now des.Time, st *reqState, out job.Outcome) {
	s.dropLive(st)
	s.cleanupRequest(st)
	if st.Failed {
		for _, p := range s.pools {
			for st.lastToken(p) >= 0 {
				s.releaseConn(now, p, st)
			}
		}
	}
	if !st.TimedOut && st.Arrival >= s.warmupEnd {
		s.outcomes[out]++
	}
	if s.OnRequestDone != nil {
		s.OnRequestDone(now, &st.Request)
	}
	if !st.TimedOut {
		s.advanceUser(now, st.user)
	}
	if st.LiveJobs() == 0 {
		s.releaseRequest(st)
	}
}

// treeNode is one topology node resolved for dispatch: what the per-job
// path needs of it, found once by name (SetTopology, then resolve).
type treeNode struct {
	dep      *Deployment
	pr       *policyRuntime    // the edge's resilience policy; nil: a bare edge
	lat      *stats.P2Quantile // observed edge latency when pr hedges by quantile
	pools    *nodePools        // nil: the node holds no connection pool
	brancher Brancher
	pathID   int // -1: sample the deployment's path choice
}

// nodePools lists the pools a node acquires, in order, and releases.
type nodePools struct{ acquire, release []*connPool }

func (s *Sim) nodeOf(st *reqState, nodeID int) *treeNode { return &s.nodes[st.Class][nodeID] }

// resolve completes the node table — policies and branchers may be set
// after the topology — numbers the pools' tokens densely after the
// client's connections, and finds the client's region.
func (s *Sim) resolve() error {
	if s.geo != nil {
		if err := s.geo.resolveHome(s.clientCfg.Region); err != nil {
			return err
		}
	}
	conn := s.clientCfg.Connections
	for _, p := range s.pools {
		p.base = conn
		conn += p.spec.Capacity
	}
	for ti := range s.topo.Trees {
		t := &s.topo.Trees[ti]
		for ni := range t.Nodes {
			n, nd := &t.Nodes[ni], &s.nodes[ti][ni]
			nd.pr, nd.lat = s.edgePolicy(ti, ni, n.Service), nil
			if nd.pr != nil && nd.pr.pol.Hedge != nil && nd.pr.pol.Hedge.Quantile > 0 {
				nd.lat = stats.NewP2Quantile(nd.pr.pol.Hedge.Quantile)
			}
			if nd.brancher = s.branchers[n.BranchKey]; n.BranchKey != "" && nd.brancher == nil {
				return fmt.Errorf("sim: tree %q node %d uses unregistered brancher %q", t.Name, ni, n.BranchKey)
			}
		}
	}
	return nil
}

// enterNode walks the request into tree node nodeID: acquire the node's
// declared connection tokens from the k-th on (0 on entry), in order, then
// dispatch the node's job with the connection id implied by the last
// acquired token (or the inherited one when no pools are listed). An
// exhausted pool parks the walk as a waiter; the releasing request's
// releaseConn resumes it at k+1. src is the machine the triggering job ran
// on (nil for the external client).
func (s *Sim) enterNode(now des.Time, st *reqState, nodeID, k, conn int, src *cluster.Machine) {
	var pools []*connPool
	if np := s.nodeOf(st, nodeID).pools; np != nil {
		pools = np.acquire
	}
	for ; k < len(pools); k++ {
		p := pools[k]
		if p.free.len() == 0 {
			p.waiters.push(waiter{id: st.ID, st: st, nodeID: nodeID, k: k, src: src})
			return
		}
		token := p.free.pop()
		st.tokens = append(st.tokens, heldToken{pool: p, token: token})
		conn = p.base + token
	}
	s.dispatchNode(now, st, nodeID, conn, src)
}

// dispatchNode creates the node's job and routes it to an instance. Edges
// guarded by a resilience policy go through the attempt machinery; bare
// edges take the direct path, where a rejected or dropped job fails the
// whole request.
func (s *Sim) dispatchNode(now des.Time, st *reqState, nodeID, conn int, src *cluster.Machine) {
	if st.Failed || st.Done() {
		return // the request ended while this dispatch waited (conn pool)
	}
	if st.Expired(now) {
		// Defensive: a conn-pool grant resumed inside another event can
		// land exactly on the deadline instant, ahead of the deadline
		// event's own bookkeeping path.
		s.failRequest(now, st, job.OutcomeDeadline)
		return
	}
	nd := s.nodeOf(st, nodeID)
	if nd.pr != nil {
		s.startAttempt(now, s.newCall(st, nodeID, conn, src, 0, nd.pr))
		return
	}
	in := s.pickFor(&st.tree.Nodes[nodeID], nd.dep, src)
	if in == nil {
		// Every instance is down and no policy protects the edge.
		s.countError(s.depErrs(nd.dep), job.OutcomeDropped)
		s.failRequest(now, st, job.OutcomeDropped)
		return
	}
	j := s.newNodeJob(&st.Request, nodeID, conn, nd)
	s.deliver(now, j, nd.dep, in, src)
}

// pickFor selects the node's instance: its pinned one (nil when killed),
// the nearest-healthy-region choice under a geography (ordered outward
// from the hop's source region by WAN latency), or a healthy instance by
// the deployment's region-blind balancing policy.
func (s *Sim) pickFor(node *graph.Node, dep *Deployment, src *cluster.Machine) *service.Instance {
	if node.Instance >= 0 {
		in := dep.Instances[node.Instance]
		if in.Down() {
			return nil
		}
		return in
	}
	if s.geo != nil {
		if in := s.pickRegional(dep, s.sourceRegion(src)); in != nil {
			return in
		}
	}
	return dep.pickFrom(dep.healthy, &dep.rr)
}

// newNodeJob creates the job for one visit to tree node nodeID.
func (s *Sim) newNodeJob(req *job.Request, nodeID, conn int, nd *treeNode) *job.Job {
	j := s.fac.NewJob(req)
	j.NodeID = nodeID
	j.Conn = conn
	pid := nd.pathID
	if pid < 0 {
		// Unpinned: sample the service's execution-path state machine
		// when it has one, else take the first path.
		if dep := nd.dep; dep.pathChoice != nil {
			pid = dep.pathChoice.Pick(dep.pathRNG)
		} else {
			pid = 0
		}
	}
	j.PathID = pid
	return j
}

// deliver routes j to instance in of dep, paying any injected edge latency
// first, passing through the destination machine's network service when
// the hop crosses machines. The client is external (src == nil), so
// requests entering the cluster always pay the receive pass; same-machine
// hops use loopback and skip it.
func (s *Sim) deliver(now des.Time, j *job.Job, dep *Deployment, in *service.Instance, src *cluster.Machine) {
	delay := dep.extra
	if dep.fluid >= 0 {
		delay += s.fluid.WaitFor(dep.fluid)
	}
	if delay > 0 {
		s.eng.Post(now+delay, s.newHop(j, dep, in, src, false).resume)
		return
	}
	s.deliverDirect(now, j, dep, in, src)
}

func (s *Sim) deliverDirect(now des.Time, j *job.Job, dep *Deployment, in *service.Instance, src *cluster.Machine) {
	dest := in.Alloc.Machine
	j.Server = in
	// The network fault model sits at the cross-machine boundary: client
	// hops (src == nil) enter the cluster from outside and are not
	// subject to intra-cluster partitions or gray links.
	if s.faults != nil && src != nil && src != dest && s.lostOnLink(now, j, in, src) {
		return
	}
	// The WAN boundary: a hop whose endpoints home in different regions
	// pays the geography's inter-region delay before admission. The
	// delay is a deterministic function of the region pair and payload
	// size — no RNG draw — so installing a geography never perturbs the
	// existing random streams.
	if s.geo != nil {
		if wan := s.wanHop(now, j, dep, in, src); wan > 0 {
			s.eng.Post(now+wan, s.newHop(j, dep, in, src, true).resume)
			return
		}
	}
	s.admitDelivery(now, j, in, src)
}

// admitDelivery lands a routed job at its destination machine.
func (s *Sim) admitDelivery(now des.Time, j *job.Job, in *service.Instance, src *cluster.Machine) {
	if res := s.admitVia(now, j, in, src); res != service.Admitted {
		s.deliveryRejected(now, j, res)
	}
}

// admitVia admits j into instance in: through the destination machine's
// interrupt-processing service when the hop crossed machines and a network
// model is configured, else directly. A refused job is unparked again and
// the refusal returned.
func (s *Sim) admitVia(now des.Time, j *job.Job, in *service.Instance, src *cluster.Machine) service.AdmitResult {
	dest := in.Alloc.Machine
	if s.netCfg == nil || src == dest {
		return in.Admit(now, j)
	}
	s.park(j, in)
	res := s.netproc[dest.ID].Admit(now, j)
	if res != service.Admitted {
		s.unpark(j)
	}
	return res
}

// park routes j through a network service: its destination (nil: a
// response leaving the cluster) and execution path wait in the job while it
// runs netproc's single path. unpark restores them on the way out.
func (s *Sim) park(j *job.Job, dest any) {
	j.Dest, j.DestPath, j.PathID = dest, j.PathID, 0
	s.pendingN++
}

func (s *Sim) unpark(j *job.Job) (dest *service.Instance) {
	dest, _ = j.Dest.(*service.Instance)
	j.Dest, j.PathID = nil, j.DestPath
	s.pendingN--
	return dest
}

// handleNetDone fires when the network service finishes processing a
// message: deliver the job to its real destination.
func (s *Sim) handleNetDone(now des.Time, j *job.Job) {
	dest := s.unpark(j)
	if dest == nil {
		// Transmit pass for a response leaving the cluster.
		s.finalizeLeaf(now, j)
		s.releaseJob(j)
		return
	}
	if res := dest.Admit(now, j); res != service.Admitted {
		// The destination died or filled up while the message was in
		// transit through the network service.
		s.deliveryRejected(now, j, res)
	}
}

// handleJobDone fires when a microservice instance completes a job's
// service-local path. The job dies here unless it goes on through a
// network service.
func (s *Sim) handleJobDone(now des.Time, j *job.Job) {
	if !s.routeJobDone(now, j) {
		s.releaseJob(j)
	}
}

// routeJobDone releases the finished job's tokens, fans out to its node's
// children and finishes leaves. It reports whether j is still in use (on
// its transmit pass through netproc).
func (s *Sim) routeJobDone(now des.Time, j *job.Job) (forwarded bool) {
	if c, _ := j.Owner.(*call); c != nil {
		// A live policy-guarded attempt finished in time.
		s.settleCall(now, c)
	} else if j.Outcome == job.OutcomeOK {
		// Bare-edge success: report the instance's residence time (a
		// settled call already reported its edge-level latency).
		s.observeCall(now, servedBy(j), true, now-j.Enqueued)
	}
	st := j.Req.Owner.(*reqState)
	if st.slot < 0 {
		if j.Req.Failed || j.Req.Done() {
			return false // stray server-side work of a request that already ended
		}
		panic(fmt.Sprintf("sim: job %d of request %d, not in flight, completed", j.ID, j.Req.ID))
	}
	node, nd := &st.tree.Nodes[j.NodeID], s.nodeOf(st, j.NodeID)
	if s.OnJobDone != nil {
		s.OnJobDone(now, j, node.Service)
	}
	if j.Outcome != job.OutcomeOK {
		// An abandoned attempt completed server-side: the edge timeout
		// already handed this hop to a retry, so the result is discarded
		// (and the conn tokens stay with the live attempt's completion).
		return false
	}
	if np := nd.pools; np != nil {
		for _, p := range np.release {
			s.releaseConn(now, p, st)
		}
	}
	src := servedBy(j).Alloc.Machine
	if len(node.Children) == 0 {
		// Leaf: optionally pay the client-transmit network pass.
		if s.netCfg != nil && s.netCfg.ClientTx {
			s.park(j, nil)
			s.netproc[src.ID].Enqueue(now, j)
			return true
		}
		s.finalizeLeaf(now, j)
		return false
	}
	children := node.Children
	if nd.brancher != nil {
		children = s.applyBranch(j, st, node, nd.brancher(now, j.Req, node.Children))
	}
	for _, child := range children {
		st.arrived[child]++
		if st.arrived[child] == st.tree.FanIn(child) {
			s.enterNode(now, st, child, 0, j.Conn, src)
		}
	}
	return false
}

// applyBranch validates a brancher's selection and prunes the leaves of
// the unselected subtrees from the request's completion accounting.
func (s *Sim) applyBranch(j *job.Job, st *reqState, node *graph.Node, selected []int) []int {
	if len(selected) == 0 {
		panic(fmt.Sprintf("sim: brancher %q selected no children", node.BranchKey))
	}
	// Children lists are short: linear scans beat building sets.
	for _, c := range selected {
		if !slices.Contains(node.Children, c) {
			panic(fmt.Sprintf("sim: brancher %q selected non-child node %d", node.BranchKey, c))
		}
	}
	for _, c := range node.Children {
		if !slices.Contains(selected, c) {
			j.Req.LeavesRemaining -= len(st.tree.LeavesUnder(c))
		}
	}
	return selected
}

// finalizeLeaf accounts a completed leaf node and, when it is the last
// leaf, finishes the request.
func (s *Sim) finalizeLeaf(now des.Time, j *job.Job) {
	req := j.Req
	if req.Failed {
		return // the request already terminated with an error
	}
	req.LeavesRemaining--
	if req.LeavesRemaining > 0 {
		return
	}
	req.Finish = now
	// Delivered throughput and latency samples belong to the window the
	// completion lands in: warmup-backlog work the system serves during
	// the window is real delivered work.
	if !req.TimedOut && now >= s.warmupEnd && now <= s.windowEnd {
		s.windowDone++
		s.latency.Record(req.Latency())
		for t, h := range s.perTier {
			if d, ok := req.TierLatency(t); ok {
				h.Record(d)
			}
		}
	}
	s.exit(now, req.Owner.(*reqState), job.OutcomeOK)
}

// InstanceReport summarizes one instance at the end of a run.
type InstanceReport struct {
	Name        string
	Service     string
	Machine     string
	Cores       int
	Utilization float64
	Completed   uint64
	// Shed counts arrivals this instance rejected via MaxQueue plus jobs
	// its CoDel discipline shed at dequeue; Dropped counts jobs it lost
	// to kills.
	Shed    uint64
	Dropped uint64
	// Canceled counts entry jobs discarded unserved because their request
	// had already terminated; Wasted counts jobs served to completion
	// whose result was discarded (the caller had stopped waiting). High
	// Wasted with low Canceled means cancellation arrives too late to
	// save work.
	Canceled uint64
	Wasted   uint64
	QueueLen int
}

// Report is the outcome of a run.
type Report struct {
	Warmup   des.Time
	Horizon  des.Time
	Arrivals uint64
	// Completions counts measured arrivals that finished within the
	// client's patience (timed-out requests are excluded). Like all six
	// outcome buckets it is gated on the request's arrival time, so the
	// conservation identity (see Buckets) holds for any warmup.
	Completions uint64
	// Timeouts counts requests the client gave up on during the
	// measured window (recorded into Latency at the timeout value).
	Timeouts uint64
	// Shed counts requests rejected with an immediate error: queue-length
	// load shedding with retries exhausted, plus circuit-breaker fast
	// fails (the BreakerFastFails subset).
	Shed uint64
	// Dropped counts requests that lost work to a crashed machine or
	// killed instance, or whose edge timeouts ran out of retries, with
	// nothing left to retry.
	Dropped uint64
	// DeadlineExpired counts requests whose end-to-end budget ran out
	// before completion; their remaining subtree was short-circuited.
	DeadlineExpired uint64
	// Unreachable counts requests failed by the network fault model with
	// nothing left to retry — a partition severed the machine pair or a
	// gray link dropped the message.
	Unreachable uint64
	// LinkDrops and LinkDups count gray-link message losses and
	// duplications at the dispatch boundary (attempt-level, like
	// Retries — duplicates never enter the conservation identity).
	LinkDrops uint64
	LinkDups  uint64
	// CrossRegionCalls counts deliveries that crossed a region boundary
	// under the installed geography (attempt-level, like LinkDrops);
	// StaleReads is the subset that served a geo-replicated deployment
	// outside the request's origin region before the serving region
	// caught up (replication lag).
	CrossRegionCalls uint64
	StaleReads       uint64
	// BreakerFastFails is the subset of Shed failed by open breakers.
	BreakerFastFails uint64
	// Retries counts resilience-policy attempt re-issues across all edges
	// (not client retries, which appear as fresh Arrivals).
	Retries uint64
	// HedgesIssued counts backup attempts issued by per-edge hedging
	// policies; HedgeWins is the subset that beat their primary. Hedges
	// are attempts, not arrivals — they never enter the conservation
	// identity.
	HedgesIssued uint64
	HedgeWins    uint64
	// CanceledWork and WastedWork aggregate the per-instance Canceled and
	// Wasted counters: jobs discarded unserved vs. jobs whose completed
	// service was thrown away.
	CanceledWork uint64
	WastedWork   uint64
	// Errors breaks down failed call attempts by target service.
	Errors map[string]*ErrorCounts
	// OfferedQPS and GoodputQPS are arrival/delivery rates over the
	// measured window. Goodput counts deliveries by completion time —
	// backlog from the warmup window served during measurement is real
	// delivered throughput — so at overload GoodputQPS·window can exceed
	// Completions (which is arrival-gated).
	OfferedQPS float64
	GoodputQPS float64
	// Latency is the end-to-end request latency histogram. Like PerTier and
	// Errors it covers the run up to Horizon and takes nothing after Run.
	Latency *stats.LatencyHist
	// PerTier holds per-service residence-latency histograms keyed by
	// service name, accumulated over completed requests.
	PerTier map[string]*stats.LatencyHist
	// Instances summarizes every deployed instance (plus network
	// services).
	Instances []InstanceReport
	// InFlight reports requests the client still awaits at the horizon —
	// large values indicate operation beyond saturation. Abandoned server
	// work of client-timed-out requests is excluded: those requests are
	// already counted in Timeouts.
	InFlight int
	// SampleRate is the hybrid-fidelity foreground fraction (1 for a
	// full-DES run). The Arrivals/Completions/... buckets above cover
	// only the sampled foreground; the fluid tier's unsimulated traffic
	// is accounted separately below with its own conservation identity:
	// BackgroundArrivals == BackgroundCompletions + BackgroundShed +
	// BackgroundUnreachable.
	SampleRate            float64
	BackgroundArrivals    uint64
	BackgroundCompletions uint64
	// BackgroundShed counts background flow beyond the bottleneck
	// capacity during saturated epochs (open-loop only; session
	// populations self-limit and never shed).
	BackgroundShed uint64
	// BackgroundUnreachable counts background flow lost to severed or
	// lossy machine pairs (partitions, region loss, gray links) — the
	// fluid tier's analogue of the foreground Unreachable bucket.
	BackgroundUnreachable uint64
	// BackgroundShedByCause attributes BackgroundShed +
	// BackgroundUnreachable to the fault class that caused each loss,
	// indexed by hybrid.Cause. Its sum is exactly BackgroundShed +
	// BackgroundUnreachable.
	BackgroundShedByCause hybrid.Losses
	// SaturatedEpochs counts fluid-tier epochs with at least one
	// saturated service.
	SaturatedEpochs int
	// FluidWork counts what the fluid tier cost the host (epochs,
	// re-solves, memo hits, fixed-point iterations). It describes the
	// simulator, not the simulated system: the fingerprint leaves it out.
	FluidWork hybrid.Counters
	// Timers counts the request path's timers by kind, likewise left out of
	// the fingerprint. A kind with Cancelled close to Armed is a guard that
	// almost never fires.
	Timers TimerWork
	// HeapPeak, LanePeak and CalendarPeak are the event engine's
	// high-water marks: the most events its heap held at once, the most
	// same-instant posts pending at once, and the most far posts waiting on
	// its calendar at once. Simulator-side, like FluidWork and Timers.
	HeapPeak, LanePeak, CalendarPeak int
}

// Bucket is one terminal request bucket of a Report.
type Bucket struct {
	Name string
	N    uint64
}

// Buckets lists the terminal request buckets, in the order the run summary
// and the conservation error print them. Every measured arrival lands in
// exactly one of them or is still InFlight (validate.Leaked):
// Arrivals == Completions + Timeouts + DeadlineExpired + Shed + Dropped +
// Unreachable + InFlight.
func (r *Report) Buckets() []Bucket {
	return []Bucket{
		{"completions", r.Completions}, {"timeouts", r.Timeouts},
		{"deadline", r.DeadlineExpired}, {"shed", r.Shed},
		{"dropped", r.Dropped}, {"unreachable", r.Unreachable},
	}
}

// TimerCounts counts the timers of one kind: Armed, then either Cancelled
// before firing or Fired; the difference was still queued at the horizon.
type TimerCounts struct{ Armed, Cancelled, Fired uint64 }

// TimerKind is a kind of request-path timer: a row of TimerWork.
type TimerKind int

// Timer kinds, in TimerWork's row order.
const (
	TimerAttemptTimeout TimerKind = iota
	TimerHedgeTrigger
	TimerClientTimeout
	TimerDeadline
	TimerRetryBackoff
	numTimerKinds
)

var timerNames = [numTimerKinds]string{"attempt_timeout", "hedge_trigger", "client_timeout", "deadline", "retry_backoff"}

// String names the kind as the Timers table prints it.
func (k TimerKind) String() string { return timerNames[k] }

// TimerWork is TimerCounts per kind of request-path timer.
type TimerWork [numTimerKinds]TimerCounts

func (s *Sim) report(horizon des.Time) *Report {
	window := (horizon - s.warmupEnd).Seconds()
	n := &s.outcomes
	r := &Report{
		Warmup:      s.warmupEnd,
		Horizon:     horizon,
		Arrivals:    s.arrivals,
		Completions: n[job.OutcomeOK],
		Timeouts:    n[job.OutcomeTimeout],
		Shed:        n[job.OutcomeShed] + n[job.OutcomeBreakerOpen],
		Dropped:     n[job.OutcomeDropped],

		DeadlineExpired:  n[job.OutcomeDeadline],
		Unreachable:      n[job.OutcomeUnreachable],
		BreakerFastFails: n[job.OutcomeBreakerOpen],
		Errors:           make(map[string]*ErrorCounts, len(s.errCounts)),

		Latency: s.latency,
		PerTier: make(map[string]*stats.LatencyHist, len(s.tiers)),
		Timers:  s.timers,

		HeapPeak:     s.eng.HeapPeak(),
		LanePeak:     s.eng.LanePeak(),
		CalendarPeak: s.eng.CalendarPeak(),

		SampleRate: 1,
	}
	// Each feature fills its own section.
	if s.pol != nil {
		s.pol.report(r)
	}
	if s.ovl != nil {
		s.ovl.report(r)
	}
	if s.faults != nil {
		s.faults.report(r)
	}
	if s.geo != nil {
		s.geo.report(r)
	}
	if s.fluid != nil {
		s.fluid.report(r)
	}
	for svc, ec := range s.errCounts {
		c := *ec
		r.Errors[svc] = &c
	}
	for t, h := range s.perTier {
		if h.Count() > 0 {
			r.PerTier[s.tiers[t]] = h
		}
	}
	// Only measured arrivals count: a request still draining from the
	// warmup window belongs to no bucket, and a timed-out request already
	// landed in Timeouts even though its abandoned work is still running.
	for _, st := range s.live {
		if st.Arrival >= s.warmupEnd && !st.TimedOut {
			r.InFlight++
		}
	}
	if window > 0 {
		r.OfferedQPS = float64(s.arrivals) / window
		r.GoodputQPS = float64(s.windowDone) / window
	}
	instances := 0
	for _, dep := range s.deps {
		instances += len(dep.Instances)
	}
	for _, np := range s.netproc {
		if np != nil {
			instances++
		}
	}
	if instances > 0 {
		r.Instances = make([]InstanceReport, 0, instances)
	}
	for _, dep := range s.deps {
		for _, in := range dep.Instances {
			r.Instances = append(r.Instances, instanceReport(in, dep.Name, horizon))
			r.CanceledWork += in.CanceledEarly()
			r.WastedWork += in.WastedWork()
		}
	}
	for _, np := range s.netproc {
		if np != nil {
			r.Instances = append(r.Instances, instanceReport(np, "netproc", horizon))
		}
	}
	return r
}

func instanceReport(in *service.Instance, svc string, horizon des.Time) InstanceReport {
	return InstanceReport{
		Name:        in.Name,
		Service:     svc,
		Machine:     in.Alloc.Machine.Name,
		Cores:       in.Alloc.Cores,
		Utilization: in.Utilization(horizon),
		Completed:   in.Completed(),
		Shed:        in.Shed(),
		Dropped:     in.Dropped(),
		Canceled:    in.CanceledEarly(),
		Wasted:      in.WastedWork(),
		QueueLen:    in.QueueLen(),
	}
}

// VerifyDrained reports an error when live request state remains after the
// engine has fully drained: in-flight requests, pending network
// deliveries, live call attempts, held connection-pool tokens, or queued
// instance work. Conservation tests run the engine dry and then assert
// nothing leaked.
func (s *Sim) VerifyDrained() error {
	if n := len(s.live); n > 0 {
		return fmt.Errorf("sim: %d requests still in flight after drain", n)
	}
	if s.pendingN > 0 {
		return fmt.Errorf("sim: %d deliveries still pending after drain", s.pendingN)
	}
	if s.liveCalls > 0 {
		return fmt.Errorf("sim: %d live call attempts after drain", s.liveCalls)
	}
	for _, p := range s.pools {
		if n := p.inUse(); n > 0 {
			return fmt.Errorf("sim: pool %q still holds %d tokens after drain", p.spec.Name, n)
		}
	}
	for _, dep := range s.deps {
		for _, in := range dep.Instances {
			if got := in.InFlight(); got != 0 {
				return fmt.Errorf("sim: instance %s reports %d in flight after drain", in.Name, got)
			}
			if got := in.QueueLen(); got != 0 {
				return fmt.Errorf("sim: instance %s still queues %d jobs after drain", in.Name, got)
			}
		}
	}
	return nil
}

// connPool is the runtime of a graph.ConnPool: a FIFO dispenser of tokens
// 0..Capacity-1, token t doubling as connection ID base+t. The tokens a
// request holds live on its reqState.
type connPool struct {
	spec    graph.ConnPool
	base    int
	free    fifo[int]
	waiters fifo[waiter]
}

// heldToken is one granted connection token.
type heldToken struct {
	pool  *connPool
	token int
}

// waiter is a node walk parked on an exhausted pool: everything enterNode
// needs to resume after tree node nodeID's k-th token. A
// waiter can outlive its request (a failed request leaves the system at
// once, its waiters are skipped lazily), so it carries the request's ID to
// tell when st has been recycled.
type waiter struct {
	id        job.ID
	st        *reqState
	nodeID, k int
	src       *cluster.Machine
}

func newConnPool(spec graph.ConnPool) *connPool {
	p := &connPool{spec: spec}
	for i := 0; i < spec.Capacity; i++ {
		p.free.push(i)
	}
	return p
}

// releaseConn returns the token of p that st's request acquired last,
// granting it to the oldest live waiter if any.
func (s *Sim) releaseConn(now des.Time, p *connPool, st *reqState) {
	i := st.lastToken(p)
	if i < 0 {
		panic(fmt.Sprintf("sim: request %d releases pool %q it does not hold", st.ID, p.spec.Name))
	}
	token := st.tokens[i].token
	st.tokens = append(st.tokens[:i], st.tokens[i+1:]...)
	for p.waiters.len() > 0 {
		w := p.waiters.pop()
		if w.st.ID != w.id || w.st.Failed {
			continue // abandoned while queued; the token passes it by
		}
		w.st.tokens = append(w.st.tokens, heldToken{pool: p, token: token})
		s.enterNode(now, w.st, w.nodeID, w.k+1, p.base+token, w.src)
		return
	}
	p.free.push(token)
}

// trackLive puts st on the in-flight list; dropLive takes it off.
func (s *Sim) trackLive(st *reqState) {
	st.slot = int32(len(s.live))
	s.live = append(s.live, st)
}

func (s *Sim) dropLive(st *reqState) {
	last := s.live[len(s.live)-1]
	s.live[st.slot], last.slot = last, st.slot
	s.live = s.live[:len(s.live)-1]
	st.slot = -1
}

// lastToken indexes the most recently granted token of p, or -1.
func (st *reqState) lastToken(p *connPool) int {
	for i := len(st.tokens) - 1; i >= 0; i-- {
		if st.tokens[i].pool == p {
			return i
		}
	}
	return -1
}

// inUse reports granted tokens.
func (p *connPool) inUse() int { return p.spec.Capacity - p.free.len() }

// fifo is a queue over a slice that keeps its backing array: popping
// advances a head index, and the consumed prefix is reclaimed once it is
// the larger half (or the queue empties), so capacity is reused instead of
// leaking one element per pop.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) || (q.head > 64 && q.head*2 >= len(q.items)) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return v
}
