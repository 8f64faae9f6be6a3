// Package sim is the µqSim core: it assembles a cluster, microservice
// deployments, an inter-service topology, and a workload generator into one
// discrete-event simulation, and produces throughput/latency reports.
//
// Request flow (paper Fig. 2): the client emits a request; the sim picks a
// weighted path tree and walks it. Entering a node acquires any declared
// connection tokens (blocking back-pressure), routes the job through the
// destination machine's network-processing service when it crosses
// machines, and enqueues it into an instance of the node's microservice
// (chosen by the deployment's load-balancing policy). When the node's job
// completes, tokens listed for release are returned, children receive
// copies (fan-out), join nodes wait for all parents (fan-in), and the
// request finishes when every leaf has completed.
package sim

import (
	"context"
	"fmt"
	"slices"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/job"
	"uqsim/internal/rng"
	"uqsim/internal/service"
	"uqsim/internal/slab"
	"uqsim/internal/stats"
	"uqsim/internal/workload"
)

// Policy selects how a deployment load-balances across instances.
type Policy int

// Load-balancing policies.
const (
	RoundRobin Policy = iota
	Random
	LeastLoaded
)

// Placement pins one instance of a deployment to a machine with a core
// budget.
type Placement struct {
	Machine string
	Cores   int
}

// NetworkConfig models per-machine network (interrupt) processing as a
// shared colocated service, per the paper: "each server is coupled with a
// network processing process as a standalone service, and all microservices
// deployed on the same server share the processes handling interrupts."
type NetworkConfig struct {
	// CoresPerMachine reserves this many cores on every machine for
	// interrupt processing.
	CoresPerMachine int
	// PerMsg is the processing cost of one message (nil: 0).
	PerMsg dist.Sampler
	// PerKB adds payload-proportional cost in ns/KB.
	PerKB float64
	// ClientTx also charges a transmit pass through the sending
	// machine's network service for responses leaving the cluster.
	ClientTx bool
}

// ClientConfig describes the workload source.
type ClientConfig struct {
	// Pattern sets the open-loop target rate over time.
	Pattern workload.Pattern
	// Proc selects the interarrival process.
	Proc workload.Process
	// ClosedUsers switches to a closed-loop client with this many users
	// when positive (Pattern is then ignored).
	ClosedUsers int
	// Think samples closed-loop think time in ns (nil: none).
	Think dist.Sampler
	// SizeKB samples request payload size (nil: 0).
	SizeKB dist.Sampler
	// Connections is the number of distinct client connections used to
	// classify requests into epoll subqueues when no connection pool is
	// declared at the root (default 64).
	Connections int
	// Timeout, when positive, makes the client give up on requests
	// older than this: the request is recorded at the timeout value
	// (what the client observed) and counted in Report.Timeouts, while
	// the server-side work still runs to completion. This models the
	// effect the paper notes its simulator lacks (§IV-C).
	Timeout des.Time
	// MaxRetries re-issues a timed-out request up to this many times
	// (requires Timeout > 0). Retries are fresh load: a saturated
	// system with retries degrades faster, the classic retry storm.
	MaxRetries int
	// Budget samples each request's end-to-end deadline budget in ns
	// (nil: no deadlines). The request carries the absolute deadline
	// through its whole subtree; expiry short-circuits remaining work —
	// queued-not-started jobs are cancelled, pending retry and hedge
	// timers removed from the event heap, and the request counted in
	// Report.DeadlineExpired. Unlike Timeout (client patience, server
	// work runs on abandoned), an expired budget actively reclaims
	// capacity. Samples are drawn from a dedicated RNG stream.
	Budget dist.Sampler
	// Sessions switches to a session-based client: a population of
	// stateful users walking multi-step journeys across the topology's
	// trees, with think times, on/off cycles, population ramps, and flash
	// crowds. Takes effect when ClosedUsers is zero; Pattern is then
	// ignored. Each terminated request (completed, timed out with retries
	// exhausted, or failed) advances its user's journey.
	Sessions *workload.SessionConfig
	// Region homes the client in one of the geography's regions. Entry
	// hops then prefer that region's instances, pay WAN latency when the
	// nearest healthy replica lives elsewhere, and a served read of a
	// geo-replicated service outside this region counts as stale until
	// the serving region catches up (see SetReplication). Empty: the
	// client is region-blind.
	Region string
}

// Options configures a simulation run.
type Options struct {
	// Seed drives all random streams.
	Seed uint64
}

// Sim is one assembled simulation.
type Sim struct {
	eng     *des.Engine
	split   *rng.Splitter
	cluster *cluster.Cluster
	fac     *job.Factory
	ran     bool // Run has been called

	deployments map[string]*Deployment
	deps        []*Deployment // in creation order

	netCfg  *NetworkConfig
	netproc []*service.Instance // interrupt service by machine ID

	// The optional features, each owning its state in its own file and nil
	// when absent, so a bare edge runs none of their code (DESIGN.md
	// decision 17).
	pol    *policies
	ovl    *overload
	faults *netFaults
	geo    *geography
	fluid  *fluidTier

	topo       *graph.Topology
	treeChoice *dist.Choice
	// nodes resolves every topology node for dispatch (nodes[tree][node]):
	// its deployment, path and pools at SetTopology, the rest when Run
	// starts, after every Set* call. pools holds the connection pools in
	// declaration order.
	nodes [][]treeNode
	pools []*connPool

	clientCfg  ClientConfig
	clientRNG  *rng.Source
	closedLoop *workload.ClosedLoop
	sessions   *workload.Sessions

	// live lists the requests in flight; each knows its place (reqState.slot).
	live []*reqState
	// pendingN counts jobs in transit through a network service (their
	// destination parked in Job.Dest), for VerifyDrained.
	pendingN int
	// The slabs recycle request blocks, call records, hedge races and
	// delayed deliveries; jobs recycle through fac, and every instance's
	// stage runs through runs.
	// poisonReleased is a test hook: released objects are overwritten with
	// garbage and withheld from reuse, so a read after release shows.
	states         slab.Slab[reqState]
	calls          slab.Slab[call]
	ops            slab.Slab[hedgeOp]
	hops           slab.Slab[hop]
	runs           service.RunPool
	poisonReleased bool

	branchers map[string]Brancher
	liveCalls int // policy-guarded attempts issued and not yet settled, failed or abandoned

	// Measurement. outcomes counts measured requests by how they ended, one
	// slot per job.Outcome. Slots are gated on the request's arrival, not
	// its end, so every counted arrival lands in exactly one slot and the
	// conservation identity (Report.Buckets) holds for any warmup.
	// windowDone counts deliveries by completion time and feeds goodput.
	warmupEnd  des.Time
	arrivals   uint64
	outcomes   [job.NumOutcomes]uint64
	windowDone uint64
	errCounts  map[string]*ErrorCounts
	timers     TimerWork
	// Latency samples land in [warmupEnd, windowEnd], closed by Run at the
	// end its report covers. perTier[t] is the residence of tiers[t].
	windowEnd des.Time
	latency   *stats.LatencyHist
	perTier   []*stats.LatencyHist
	tiers     []string

	// OnRequestDone observes every completed request (after or during
	// warmup), e.g. for the power manager's windowed tail tracker. The
	// request's storage is recycled once its last job has finished: a hook
	// must copy what it needs and not retain req past its return.
	OnRequestDone func(now des.Time, req *job.Request)
	// OnJobDone observes every completed service-local job with the
	// service name of the node it executed — the hook the tracer uses
	// to build per-request waterfalls. Like req above, j (and j.Req) must
	// not be retained past the hook's return.
	OnJobDone func(now des.Time, j *job.Job, service string)
	// OnCallResult observes the outcome of every dispatched call against
	// the instance that served (or lost) it: ok with the observed latency
	// on success, !ok for timeouts, sheds, and drops. Control planes feed
	// their per-instance success-rate and latency-quantile trackers from
	// it, finding the tracker by the instance's Tier and Index; nil costs
	// the dispatch path nothing.
	OnCallResult func(now des.Time, in *service.Instance, ok bool, latency des.Time)
}

// observeCall reports one call outcome to an attached observer. Calls
// that never reached an instance (no healthy instance to pick) carry none
// and are skipped — there is nobody to blame.
func (s *Sim) observeCall(now des.Time, in *service.Instance, ok bool, latency des.Time) {
	if s.OnCallResult != nil && in != nil {
		s.OnCallResult(now, in, ok, latency)
	}
}

// servedBy is the instance j was routed to; nil before routing.
func servedBy(j *job.Job) *service.Instance {
	in, _ := j.Server.(*service.Instance)
	return in
}

// reqState is one request's block: the request itself, embedded, and its
// progress through its tree. The request reaches its block through
// Request.Owner, set once when the block is allocated; blocks are recycled
// whole, by releaseRequest. The tree index is Request.Class.
type reqState struct {
	job.Request
	tree    *graph.Tree
	arrived []int       // per-node parent-completion counts
	tokens  []heldToken // connection-pool tokens held, in grant order
	user    int         // owning session user (-1: no session client)
	slot    int32       // index in Sim.live while in flight, else -1

	// What cleanupRequest disarms: the request's own two timers (callbacks
	// bound on first use) and its call records, live attempts and pending
	// retry backoffs, each holding its index here in call.slot.
	deadlineEv, clientTO   des.Event
	onDeadline, onClientTO des.Callback
	calls                  []*call
}

// New creates an empty simulation.
func New(opts Options) *Sim {
	return &Sim{
		eng:         des.New(),
		split:       rng.NewSplitter(opts.Seed),
		cluster:     cluster.NewCluster(),
		fac:         job.NewFactory(),
		deployments: make(map[string]*Deployment),
		branchers:   make(map[string]Brancher),
		errCounts:   make(map[string]*ErrorCounts),
		windowEnd:   des.MaxTime,
		latency:     stats.NewLatencyHist(),
	}
}

// poisonKey marks a context whose runs poison what they release (see
// Sim.poisonReleased); only the package's tests set it.
type poisonKey struct{}

// Bind ties the run to ctx: once ctx is done the engine stops (Engine.Stop
// is atomic, so the stop may come from any goroutine) and Run returns a
// partial report up to the stopped clock. A ctx already done stops the
// engine at once, so the run processes no event. Call release when the
// run, and whatever the caller drives on the engine after it, is over.
func (s *Sim) Bind(ctx context.Context) (release func() bool) {
	s.poisonReleased = ctx.Value(poisonKey{}) != nil
	if ctx.Err() != nil {
		s.eng.Stop()
	}
	return context.AfterFunc(ctx, s.eng.Stop)
}

// Engine exposes the underlying event engine (read-mostly; used by the
// power manager to schedule decision epochs and by tests).
func (s *Sim) Engine() *des.Engine { return s.eng }

// Cluster exposes the machine registry.
func (s *Sim) Cluster() *cluster.Cluster { return s.cluster }

// AddMachine registers a machine.
func (s *Sim) AddMachine(name string, cores int, freq cluster.FreqSpec) *cluster.Machine {
	m := cluster.NewMachine(name, cores, freq)
	if err := s.cluster.Add(m); err != nil {
		panic(err)
	}
	return m
}

// instanceState is a deployment's control-plane view of one instance.
// It is orthogonal to the instance's own fault state (Down): an instance
// can be up yet ejected (gray failure), or down yet still active (the
// fault has not been acted on).
type instanceState uint8

const (
	// instActive: in the load-balancing rotation whenever the instance
	// itself is up.
	instActive instanceState = iota
	// instEjected: removed from load balancing by outlier detection;
	// in-flight work still completes. Reinstatement restores instActive.
	instEjected
	// instRetired: permanently removed (replaced after failover, or
	// scaled down). A retired instance never rejoins the rotation, even
	// if a fault-plan restart brings the process back up.
	instRetired
)

// Deployment is a named group of instances of one blueprint.
type Deployment struct {
	Name      string
	BP        *service.Blueprint
	Instances []*service.Instance
	LB        Policy

	rr         int
	rng        *rng.Source
	pathChoice *dist.Choice
	pathRNG    *rng.Source

	// healthy is the live load-balancing set — instances that are up,
	// active, and not ejected/retired — kept in Instances order. It is
	// rebuilt only on the rare membership events (kill, restart, eject,
	// reinstate, retire, replica add), so the per-dispatch picking path
	// never allocates.
	healthy []*service.Instance
	state   []instanceState

	regions *depRegions // the deployment's share of the geography; nil without one

	// Injected edge latency, the fluid tier's index for this service (-1:
	// not modeled), and the error counters (nil until the first error).
	extra des.Time
	fluid int
	errs  *ErrorCounts
}

// refreshHealthy rebuilds the load-balancing set after a membership
// event. O(instances), but membership events are orders of magnitude
// rarer than dispatches.
func (d *Deployment) refreshHealthy() {
	d.healthy = d.healthy[:0]
	for i, in := range d.Instances {
		if d.state[i] == instActive && !in.Down() {
			d.healthy = append(d.healthy, in)
		}
	}
	if d.regions != nil {
		d.regions.refresh(d.healthy)
	}
}

// Healthy reports the instances currently in the load-balancing
// rotation, in deployment order. The returned slice is live: callers
// must not mutate or retain it across events.
func (d *Deployment) Healthy() []*service.Instance { return d.healthy }

func (d *Deployment) indexOf(in *service.Instance) int {
	if i := in.Index; i >= 0 && i < len(d.Instances) && d.Instances[i] == in {
		return i
	}
	return -1
}

// Eject removes an active instance from load balancing (outlier
// ejection). In-flight work on it still completes; only new picks skip
// it. Reports whether the state changed.
func (d *Deployment) Eject(in *service.Instance) bool { return d.move(in, instActive, instEjected) }

// Reinstate returns an ejected instance to load balancing (probation
// ended). Reports whether the state changed.
func (d *Deployment) Reinstate(in *service.Instance) bool { return d.move(in, instEjected, instActive) }

// Retire permanently removes an instance from load balancing (replaced
// after failover, or scaled down). Reports whether the state changed.
func (d *Deployment) Retire(in *service.Instance) bool {
	i := d.indexOf(in)
	return i >= 0 && d.move(in, d.state[i], instRetired)
}

// move takes one of d's instances from state from to state to, when it is
// in from and that is a change, and reports whether it did.
func (d *Deployment) move(in *service.Instance, from, to instanceState) bool {
	i := d.indexOf(in)
	if i < 0 || d.state[i] != from || from == to {
		return false
	}
	d.state[i] = to
	d.refreshHealthy()
	return true
}

// Retired reports whether the instance has been permanently removed.
func (d *Deployment) Retired(in *service.Instance) bool {
	i := d.indexOf(in)
	return i >= 0 && d.state[i] == instRetired
}

// EjectedCount reports instances currently ejected by outlier detection.
func (d *Deployment) EjectedCount() int { return d.count(instEjected) }

// ReplicaCount reports non-retired instances — the deployment's current
// scale, regardless of momentary health.
func (d *Deployment) ReplicaCount() int { return len(d.state) - d.count(instRetired) }

func (d *Deployment) count(st instanceState) int {
	n := 0
	for _, x := range d.state {
		if x == st {
			n++
		}
	}
	return n
}

// Deploy creates instances of bp on the given placements under the
// service's name (used by graph nodes).
func (s *Sim) Deploy(bp *service.Blueprint, lb Policy, placements ...Placement) (*Deployment, error) {
	if len(placements) == 0 {
		return nil, fmt.Errorf("sim: deployment %s needs at least one placement", bp.Name)
	}
	if _, ok := s.deployments[bp.Name]; ok {
		return nil, fmt.Errorf("sim: duplicate deployment %s", bp.Name)
	}
	dep := &Deployment{
		Name: bp.Name, BP: bp, LB: lb,
		rng:   s.split.Stream("lb", bp.Name),
		fluid: -1,
	}
	if len(bp.PathProbs) > 0 {
		dep.pathChoice = dist.NewChoice(bp.PathProbs)
		dep.pathRNG = s.split.Stream("paths", bp.Name)
	}
	if s.geo != nil {
		dep.regions = s.geo.newDepRegions()
	}
	for _, p := range placements {
		if _, err := s.addInstance(dep, p.Machine, p.Cores); err != nil {
			return nil, err
		}
	}
	dep.refreshHealthy()
	s.deployments[bp.Name] = dep
	s.deps = append(s.deps, dep)
	return dep, nil
}

// AddReplica deploys one more instance of an existing deployment onto the
// named machine — the act half of failover and scale-up. The replica
// inherits the deployment's shedding and admission configuration from its
// first sibling and joins the load-balancing rotation immediately.
func (s *Sim) AddReplica(svc, machine string, cores int) (*service.Instance, error) {
	dep, ok := s.deployments[svc]
	if !ok {
		return nil, fmt.Errorf("sim: replica of undeployed service %q", svc)
	}
	in, err := s.addInstance(dep, machine, cores)
	if err != nil {
		return nil, err
	}
	dep.refreshHealthy()
	return in, nil
}

// addInstance appends one instance of dep on the named machine, named and
// numbered after its siblings. It sheds, disciplines and vets its queue like
// the first of them. It joins the rotation at the caller's next
// refreshHealthy.
func (s *Sim) addInstance(dep *Deployment, machine string, cores int) (*service.Instance, error) {
	i := len(dep.Instances)
	name := fmt.Sprintf("%s-%d", dep.Name, i)
	m, ok := s.cluster.Machine(machine)
	if !ok {
		return nil, fmt.Errorf("sim: %s references unknown machine %q", name, machine)
	}
	in, err := s.newInstance(dep.BP, name, m, cores, s.split.Stream("instance", name))
	if err != nil {
		return nil, err
	}
	in.Index = i
	in.OnJobDone, in.OnJobDrop, in.OnJobShed = s.handleJobDone, s.handleJobDrop, s.handleJobShed
	if i > 0 {
		tmpl := dep.Instances[0]
		in.MaxQueue = tmpl.MaxQueue
		in.IsCanceled = tmpl.IsCanceled // nil until overload control runs
		if d := tmpl.Discipline(); d.Kind != fault.QueueFIFO {
			if err := in.SetDiscipline(d); err != nil {
				m.Release(in.Alloc)
				return nil, err
			}
		}
	}
	dep.Instances = append(dep.Instances, in)
	dep.state = append(dep.state, instActive)
	return in, nil
}

// newInstance reserves cores on m and builds instance name of bp on its own
// stream, in bp's tier. Its cores go back if the build fails. The caller
// wires where its jobs go.
func (s *Sim) newInstance(bp *service.Blueprint, name string, m *cluster.Machine, cores int, stream *rng.Source) (*service.Instance, error) {
	alloc, err := m.Allocate(name, cores)
	if err != nil {
		return nil, err
	}
	in, err := service.NewInstance(s.eng, bp, name, alloc, stream, &s.runs)
	if err != nil {
		m.Release(alloc)
		return nil, err
	}
	in.Tier = s.TierNumber(bp.Name)
	return in, nil
}

// RemoveReplica retires an instance and returns its cores to its machine.
// The instance must already be drained (no queued or in-flight work): the
// caller orchestrates the graceful drain, this performs the final
// accounting.
func (s *Sim) RemoveReplica(svc string, in *service.Instance) error {
	dep, ok := s.deployments[svc]
	if !ok {
		return fmt.Errorf("sim: remove replica of undeployed service %q", svc)
	}
	if dep.indexOf(in) < 0 {
		return fmt.Errorf("sim: %s has no instance %s", svc, in.Name)
	}
	if in.InFlight() != 0 || in.QueueLen() != 0 {
		return fmt.Errorf("sim: removing %s with %d in flight, %d queued",
			in.Name, in.InFlight(), in.QueueLen())
	}
	dep.Retire(in)
	in.Alloc.Machine.Release(in.Alloc)
	return nil
}

// TierNumber reports the number under which requests accrue the residence
// of the named service's tier (job.Request.TierLatency). Tiers are numbered
// densely as first named, at Deploy or here.
func (s *Sim) TierNumber(name string) int {
	if t := slices.Index(s.tiers, name); t >= 0 {
		return t
	}
	s.tiers = append(s.tiers, name)
	s.perTier = append(s.perTier, stats.NewLatencyHist())
	return len(s.tiers) - 1
}

// Stream derives a labeled RNG stream from the simulation seed. Attached
// controllers draw their randomness (heartbeat jitter, probe placement)
// from dedicated streams so their presence never perturbs the service-time
// or load-balancing draws.
func (s *Sim) Stream(labels ...string) *rng.Source { return s.split.Stream(labels...) }

// Deployment looks up a deployment by service name.
func (s *Sim) Deployment(name string) (*Deployment, bool) {
	d, ok := s.deployments[name]
	return d, ok
}

// Deployments lists deployments in creation order.
func (s *Sim) Deployments() []*Deployment { return append([]*Deployment(nil), s.deps...) }

// pickFrom applies the deployment's balancing policy to one healthy
// subset with its own rotation cursor — the whole set for region-blind
// picks, a per-region subset for geography-aware ones; nil when the subset
// is empty.
func (d *Deployment) pickFrom(healthy []*service.Instance, rr *int) *service.Instance {
	n := len(healthy)
	if n == 0 {
		return nil
	}
	switch d.LB {
	case Random:
		return healthy[d.rng.IntN(n)]
	case LeastLoaded:
		// Scan from a rotating start so ties spread across instances
		// instead of always landing on the first one.
		start := *rr % n
		*rr++
		best := healthy[start]
		bestLoad := best.InFlight()
		for i := 1; i < n; i++ {
			in := healthy[(start+i)%n]
			if l := in.InFlight(); l < bestLoad {
				best, bestLoad = in, l
			}
		}
		return best
	default:
		in := healthy[*rr%n]
		*rr++
		return in
	}
}

// EnableNetwork deploys one interrupt-processing instance per machine.
// Call after all machines exist and before Build.
func (s *Sim) EnableNetwork(cfg NetworkConfig) error {
	if cfg.CoresPerMachine < 1 {
		return fmt.Errorf("sim: network needs at least one core per machine")
	}
	if cfg.PerMsg == nil && cfg.PerKB == 0 {
		return fmt.Errorf("sim: network needs a message cost model")
	}
	s.netCfg = &cfg
	s.netproc = make([]*service.Instance, s.cluster.Size())
	bp := &service.Blueprint{
		Name:   "netproc",
		Stages: []service.StageSpec{{Name: "soft_irq", PerJob: cfg.PerMsg, PerKB: cfg.PerKB}},
		Paths:  []service.PathSpec{{Name: "rx", Stages: []int{0}}},
	}
	for _, m := range s.cluster.Machines() {
		in, err := s.newInstance(bp, "netproc@"+m.Name, m, cfg.CoresPerMachine, s.split.Stream("netproc", m.Name))
		if err != nil {
			return fmt.Errorf("sim: reserving interrupt cores on %s: %w", m.Name, err)
		}
		in.OnJobDone, in.OnJobDrop = s.handleNetDone, s.handleNetDrop
		s.netproc[m.ID] = in
	}
	return nil
}

// SetTopology installs the inter-service topology. All referenced services
// must already be deployed.
func (s *Sim) SetTopology(topo *graph.Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	pools := make([]*connPool, len(topo.Pools))
	for i, spec := range topo.Pools {
		pools[i] = newConnPool(spec)
	}
	poolsOf := func(names []string) (ps []*connPool) {
		for _, name := range names {
			ps = append(ps, pools[slices.IndexFunc(topo.Pools, func(p graph.ConnPool) bool { return p.Name == name })])
		}
		return ps
	}
	nodes := make([][]treeNode, len(topo.Trees))
	for ti := range topo.Trees {
		t := &topo.Trees[ti]
		nodes[ti] = make([]treeNode, len(t.Nodes))
		for ni := range t.Nodes {
			n := &t.Nodes[ni]
			dep, ok := s.deployments[n.Service]
			if !ok {
				return fmt.Errorf("sim: tree %q node %d references undeployed service %q",
					t.Name, ni, n.Service)
			}
			if n.Instance >= len(dep.Instances) {
				return fmt.Errorf("sim: tree %q node %d pins instance %d of %d",
					t.Name, ni, n.Instance, len(dep.Instances))
			}
			pid := -1 // default: sample from PathProbs, else path 0
			if n.ServicePath != "" {
				pid = slices.IndexFunc(dep.BP.Paths, func(p service.PathSpec) bool { return p.Name == n.ServicePath })
				if pid < 0 {
					return fmt.Errorf("sim: tree %q node %d references unknown path %q of %s",
						t.Name, ni, n.ServicePath, n.Service)
				}
			}
			nodes[ti][ni] = treeNode{dep: dep, pathID: pid}
			if len(n.AcquireConn)+len(n.ReleaseConn) > 0 {
				nodes[ti][ni].pools = &nodePools{poolsOf(n.AcquireConn), poolsOf(n.ReleaseConn)}
			}
		}
	}
	s.topo, s.nodes, s.pools = topo, nodes, pools
	s.treeChoice = dist.NewChoice(topo.Weights())
	return nil
}

// Topology reports the installed inter-service topology (nil before
// SetTopology). Control planes consult it to refuse managing services the
// topology pins to specific instances.
func (s *Sim) Topology() *graph.Topology { return s.topo }

// Brancher decides at runtime which children of a branch node receive a
// request (selecting among node.Children by ID). A cache model, for
// example, returns the hit child or the miss chain depending on its state.
// Like the hooks, it must not retain req.
type Brancher func(now des.Time, req *job.Request, children []int) []int

// RegisterBrancher installs the decision function for all nodes whose
// BranchKey equals key. Must be called before Run for every key the
// topology references.
func (s *Sim) RegisterBrancher(key string, fn Brancher) {
	if key == "" || fn == nil {
		panic("sim: brancher needs a key and a function")
	}
	s.branchers[key] = fn
}

// SetClient installs the workload source.
func (s *Sim) SetClient(cfg ClientConfig) {
	if cfg.Connections <= 0 {
		cfg.Connections = 64
	}
	s.clientCfg = cfg
	s.clientRNG = s.split.Stream("client")
}

// Client reports the currently installed workload source.
func (s *Sim) Client() ClientConfig { return s.clientCfg }
