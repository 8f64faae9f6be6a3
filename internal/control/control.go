// Package control is a discrete-event self-healing control plane for a
// simulation: it closes the detect→decide→act loop that the data-plane
// resilience machinery (retries, breakers, deadlines, hedges) deliberately
// leaves open. Four cooperating controllers run as ordinary DES events:
//
//   - a failure detector driving per-instance heartbeats through a
//     phi-accrual suspicion score, so crash detection has realistic lag
//     instead of instant omniscience;
//   - an outlier ejector tracking per-instance success rates and latency
//     quantiles (streaming P² estimators), removing gray-failed instances
//     from load balancing with bounded eviction and probation-based
//     reinstatement;
//   - a failover orchestrator replacing detected-dead instances with fresh
//     replicas on machines with free cores after a restart delay;
//   - a reactive autoscaler following a target-utilization or queue-depth
//     control law with scale-up/down cooldowns, bounded by cluster
//     capacity.
//
// Every decision is deterministic under the simulation seed: the plane's
// only randomness (heartbeat jitter) comes from dedicated RNG streams, so
// attaching it never perturbs service-time or load-balancing draws.
package control

import (
	"fmt"
	"math"
	"sort"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/rng"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
)

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	// Period is the heartbeat emission period (default 20ms).
	Period des.Time
	// Jitter spreads each interval uniformly by ±Jitter·Period (default
	// 0.1), drawn from a dedicated per-instance RNG stream.
	Jitter float64
	// CheckInterval is the suspicion-evaluation cadence (default Period).
	CheckInterval des.Time
	// PhiThreshold is the phi-accrual suspicion level that declares an
	// instance dead (default 8 — the classic "one in 10⁸" operating
	// point).
	PhiThreshold float64
	// MinSamples is how many observed intervals the detector wants before
	// trusting its own mean over the configured period (default 3).
	MinSamples int
}

func (c *DetectorConfig) withDefaults() *DetectorConfig {
	out := *c
	if out.Period <= 0 {
		out.Period = 20 * des.Millisecond
	}
	if out.Jitter <= 0 {
		out.Jitter = 0.1
	}
	if out.CheckInterval <= 0 {
		out.CheckInterval = out.Period
	}
	if out.PhiThreshold <= 0 {
		out.PhiThreshold = 8
	}
	if out.MinSamples <= 0 {
		out.MinSamples = 3
	}
	return &out
}

// EjectionConfig tunes the outlier ejector.
type EjectionConfig struct {
	// Interval is the evaluation window: per-instance success/failure
	// counts and latency quantiles are evaluated and reset on this cadence
	// (default 100ms).
	Interval des.Time
	// FailureRatio ejects an instance whose windowed failure fraction
	// reaches it (default 0.5).
	FailureRatio float64
	// LatencyFactor ejects an instance whose windowed latency quantile
	// exceeds this multiple of the deployment's (lower) median quantile
	// (default 1.5).
	LatencyFactor float64
	// Quantile is the tracked latency quantile (default 0.9).
	Quantile float64
	// MinRequests is the minimum windowed observation count before either
	// rule applies to an instance (default 20).
	MinRequests int
	// MinHealthyFraction bounds eviction: ejection never shrinks the
	// healthy set below ceil(fraction · replicas), and never below one
	// instance (default 0.5).
	MinHealthyFraction float64
	// Probation is how long an ejected instance sits out before
	// reinstatement with a clean slate (default 500ms). A still-degraded
	// instance is re-ejected one window later.
	Probation des.Time
}

func (c *EjectionConfig) withDefaults() *EjectionConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 100 * des.Millisecond
	}
	if out.FailureRatio <= 0 {
		out.FailureRatio = 0.5
	}
	if out.LatencyFactor <= 0 {
		out.LatencyFactor = 1.5
	}
	if out.Quantile <= 0 {
		out.Quantile = 0.9
	}
	if out.MinRequests <= 0 {
		out.MinRequests = 20
	}
	if out.MinHealthyFraction <= 0 {
		out.MinHealthyFraction = 0.5
	}
	if out.Probation <= 0 {
		out.Probation = 500 * des.Millisecond
	}
	return &out
}

// FailoverConfig tunes dead-instance replacement. Requires a Detector.
type FailoverConfig struct {
	// RestartDelay is the lag between declaring an instance dead and its
	// replacement admitting traffic — scheduling plus cold start (default
	// 100ms). While no machine has capacity the attempt repeats on this
	// cadence.
	RestartDelay des.Time
	// Machines optionally restricts replacement placement to this
	// allowlist (default: any machine in the cluster).
	Machines []string
}

func (c *FailoverConfig) withDefaults() *FailoverConfig {
	out := *c
	if out.RestartDelay <= 0 {
		out.RestartDelay = 100 * des.Millisecond
	}
	return &out
}

// AutoscaleConfig is one service's reactive scaling law. Exactly one of
// TargetUtilization and TargetQueue must be set.
type AutoscaleConfig struct {
	// Service names the scaled deployment.
	Service string
	// Min and Max bound the replica count (Min ≥ 1, Max ≥ Min).
	Min, Max int
	// TargetUtilization drives replicas toward this windowed mean core
	// occupancy in (0,1) — the HPA law desired = ceil(current·observed/target).
	TargetUtilization float64
	// TargetQueue drives replicas toward this mean queue depth per
	// replica (> 0).
	TargetQueue float64
	// Interval is the decision cadence (default 100ms).
	Interval des.Time
	// UpCooldown and DownCooldown suppress repeat actions after a scale-up
	// (default 2·Interval) and scale-down (default 4·Interval).
	UpCooldown   des.Time
	DownCooldown des.Time
	// Tolerance is the deadband around the target inside which no action
	// is taken (default 0.2, i.e. ±20%).
	Tolerance float64
	// Cores per added replica (default: same as the first instance).
	Cores int
	// Machines optionally restricts placement of new replicas.
	Machines []string
}

func (c *AutoscaleConfig) withDefaults() *AutoscaleConfig {
	out := *c
	if out.Min <= 0 {
		out.Min = 1
	}
	if out.Interval <= 0 {
		out.Interval = 100 * des.Millisecond
	}
	if out.UpCooldown <= 0 {
		out.UpCooldown = 2 * out.Interval
	}
	if out.DownCooldown <= 0 {
		out.DownCooldown = 4 * out.Interval
	}
	if out.Tolerance <= 0 {
		out.Tolerance = 0.2
	}
	return &out
}

// Config assembles the control plane. Nil sections disable the
// corresponding controller.
type Config struct {
	// Services restricts the plane to these deployments (default: every
	// deployment in the simulation).
	Services  []string
	Detector  *DetectorConfig
	Ejection  *EjectionConfig
	Failover  *FailoverConfig
	Autoscale []AutoscaleConfig
	// RegionFailover arms region-loss detection and geo-replica
	// promotion. Requires a Detector and a simulation with an installed
	// geography (sim.SetGeography).
	RegionFailover *RegionFailoverConfig
	// Vantage names the machine the plane observes the cluster from.
	// With the network fault model active, heartbeats from machines
	// unreachable toward the vantage are lost — live instances behind a
	// partition are falsely suspected — and the plane neither places
	// replicas on machines it cannot reach nor autoscales a deployment
	// it only partially sees. Empty: an omniscient plane (prior
	// behaviour, and the right model when no partitions are injected).
	Vantage string
}

// Stats counts control-plane actions; it extends the determinism
// fingerprint over the plane's behaviour.
type Stats struct {
	// Detections counts instances declared dead by the phi detector;
	// Recoveries counts declared-dead instances whose heartbeats resumed
	// before (or without) replacement.
	Detections uint64
	Recoveries uint64
	// DetectionLagTotal accumulates (detection time − actual kill time)
	// across detections.
	DetectionLagTotal des.Time
	// Failovers counts replacement replicas brought up; FailoverStalls
	// counts placement attempts deferred for lack of free cores.
	Failovers      uint64
	FailoverStalls uint64
	// Ejections and Reinstatements count outlier-ejector actions.
	Ejections      uint64
	Reinstatements uint64
	// ScaleUps/ScaleDowns count autoscaler replica additions and
	// retirements; ScaleBlocked counts scale-ups skipped for lack of
	// cluster capacity.
	ScaleUps     uint64
	ScaleDowns   uint64
	ScaleBlocked uint64
	// ScaleFrozen counts autoscaler decisions skipped because a live
	// instance was unreachable from the vantage: scaling on a partial
	// view would double-place capacity that is still serving.
	ScaleFrozen uint64
	// RegionLosses counts regions declared lost (every tracked instance
	// homed there dead); RegionFailovers counts geo-replica promotions
	// performed in response; RegionRestores counts lost regions whose
	// instances resumed beating.
	RegionLosses    uint64
	RegionFailovers uint64
	RegionRestores  uint64
}

// Fingerprint flattens the counters into a comparable string for
// determinism tests.
func (st *Stats) Fingerprint() string {
	return fmt.Sprintf("det=%d rec=%d lag=%d fo=%d stall=%d ej=%d rein=%d up=%d down=%d blocked=%d frozen=%d rloss=%d rfo=%d rrest=%d",
		st.Detections, st.Recoveries, st.DetectionLagTotal, st.Failovers, st.FailoverStalls,
		st.Ejections, st.Reinstatements, st.ScaleUps, st.ScaleDowns, st.ScaleBlocked, st.ScaleFrozen,
		st.RegionLosses, st.RegionFailovers, st.RegionRestores)
}

// Plane is one attached control plane.
type Plane struct {
	s   *sim.Sim
	eng *des.Engine
	cfg Config

	managed []*managedDeployment
	// byInstance[in.Tier][in.Index] is a managed instance's tracker.
	byInstance [][]*instanceTrack
	// vantage is the machine Config.Vantage names (nil: omniscient).
	vantage *cluster.Machine
	// lostRegions marks, by region index, the regions currently declared
	// lost, for edge-triggered loss/restore accounting.
	lostRegions []bool
	stats       Stats
	stopped     bool
	// Loop callbacks are bound once, so that a tick allocates nothing.
	suspicionTick, regionTick des.Callback
	// zSafe is safeZ of the detector's threshold: silences shorter than it
	// skip the phi evaluation.
	zSafe float64
}

// after posts fn d from now. No control-plane event is ever cancelled:
// a stopped plane's loops stand down when they next fire.
func (p *Plane) after(d des.Time, fn des.Callback) {
	p.eng.Post(p.eng.Now()+max(d, 0), fn)
}

// managedDeployment is the plane's view of one deployment.
type managedDeployment struct {
	dep    *sim.Deployment
	tracks []*instanceTrack
	scale  *autoscaleState // nil unless autoscaled

	ejectTick, scaleTick des.Callback
	// Ejection scratch, reused by every window's evaluation.
	cands     []*instanceTrack
	quantiles []float64
	outliers  []outlier
}

// instanceTrack is the plane's per-instance state: detector history,
// ejection window, and autoscaler busy-time cursor.
type instanceTrack struct {
	md   *managedDeployment
	in   *service.Instance
	hb   *rng.Source
	beat des.Callback

	// Failure detector (Welford over observed heartbeat intervals).
	lastBeat des.Time
	beats    uint64
	meanInt  float64
	m2       float64
	dead     bool
	replaced bool // a failover replica superseded this instance
	// suspectEject marks an instance the detector pulled from the
	// rotation while it was alive but silent (partitioned from the
	// vantage); resumed beats reinstate it.
	suspectEject bool

	// Ejection window, reset every evaluation interval.
	succ uint64
	fail uint64
	lat  *stats.P2Quantile

	// Autoscaler busy-time cursor and last windowed delta.
	prevBusy   des.Time
	windowBusy des.Time
}

// Attach wires a control plane into the simulation and schedules its
// event loops. Call after deployments and topology exist and before Run.
// The plane keeps acting until the engine stops or Stop is called;
// conservation tests draining the engine after a run must call Stop first,
// or the periodic loops keep the event heap occupied forever.
func Attach(s *sim.Sim, cfg Config) (*Plane, error) {
	if cfg.Failover != nil && cfg.Detector == nil {
		return nil, fmt.Errorf("control: failover requires a detector")
	}
	if cfg.Detector == nil && cfg.Ejection == nil && len(cfg.Autoscale) == 0 {
		return nil, fmt.Errorf("control: empty config — enable a detector, ejection, or autoscaling")
	}
	if cfg.Detector != nil {
		cfg.Detector = cfg.Detector.withDefaults()
	}
	if cfg.Ejection != nil {
		e := cfg.Ejection.withDefaults()
		if e.FailureRatio > 1 {
			return nil, fmt.Errorf("control: ejection failure ratio %.2f > 1", e.FailureRatio)
		}
		if e.MinHealthyFraction > 1 {
			return nil, fmt.Errorf("control: min healthy fraction %.2f > 1", e.MinHealthyFraction)
		}
		if e.Quantile >= 1 {
			return nil, fmt.Errorf("control: ejection quantile %.2f must be in (0,1)", e.Quantile)
		}
		cfg.Ejection = e
	}
	if cfg.Failover != nil {
		f := cfg.Failover.withDefaults()
		for _, m := range f.Machines {
			if _, ok := s.Cluster().Machine(m); !ok {
				return nil, fmt.Errorf("control: failover references unknown machine %q", m)
			}
		}
		cfg.Failover = f
	}
	var vantage *cluster.Machine
	if cfg.Vantage != "" {
		m, ok := s.Cluster().Machine(cfg.Vantage)
		if !ok {
			return nil, fmt.Errorf("control: vantage references unknown machine %q", cfg.Vantage)
		}
		vantage = m
	}
	if cfg.RegionFailover != nil {
		if cfg.Detector == nil {
			return nil, fmt.Errorf("control: region failover requires a detector")
		}
		if s.Geography() == nil {
			return nil, fmt.Errorf("control: region failover requires a geography — call sim.SetGeography first")
		}
		cfg.RegionFailover = cfg.RegionFailover.withDefaults(cfg.Detector)
	}

	p := &Plane{s: s, eng: s.Engine(), cfg: cfg, vantage: vantage}
	if geo := s.Geography(); geo != nil {
		p.lostRegions = make([]bool, len(geo.Regions()))
	}

	// Resolve the managed deployments in deterministic order.
	deps := s.Deployments()
	if len(cfg.Services) > 0 {
		deps = deps[:0:0]
		for _, name := range cfg.Services {
			dep, ok := s.Deployment(name)
			if !ok {
				return nil, fmt.Errorf("control: unknown service %q", name)
			}
			deps = append(deps, dep)
		}
	}
	byName := make(map[string]*managedDeployment, len(deps))
	for _, dep := range deps {
		md := &managedDeployment{dep: dep}
		for _, in := range dep.Instances {
			p.registerInstance(md, in)
		}
		p.managed = append(p.managed, md)
		byName[dep.Name] = md
	}

	// Validate and arm the autoscalers.
	pinned := pinnedServices(s)
	seen := make(map[string]bool, len(cfg.Autoscale))
	for i := range cfg.Autoscale {
		ac := cfg.Autoscale[i].withDefaults()
		md, ok := byName[ac.Service]
		if !ok {
			return nil, fmt.Errorf("control: autoscale references unmanaged service %q", ac.Service)
		}
		if seen[ac.Service] {
			return nil, fmt.Errorf("control: duplicate autoscale entry for %q", ac.Service)
		}
		seen[ac.Service] = true
		if pinned[ac.Service] {
			return nil, fmt.Errorf("control: cannot autoscale %q — the topology pins it to specific instances", ac.Service)
		}
		if (ac.TargetUtilization > 0) == (ac.TargetQueue > 0) {
			return nil, fmt.Errorf("control: autoscale %q needs exactly one of target utilization and target queue", ac.Service)
		}
		if ac.TargetUtilization < 0 || ac.TargetUtilization >= 1 {
			return nil, fmt.Errorf("control: autoscale %q target utilization %.2f must be in (0,1)", ac.Service, ac.TargetUtilization)
		}
		if ac.Max < ac.Min {
			return nil, fmt.Errorf("control: autoscale %q max %d below min %d", ac.Service, ac.Max, ac.Min)
		}
		for _, m := range ac.Machines {
			if _, ok := s.Cluster().Machine(m); !ok {
				return nil, fmt.Errorf("control: autoscale %q references unknown machine %q", ac.Service, m)
			}
		}
		md.scale = &autoscaleState{cfg: ac}
	}

	// Arm the loops. Order is deterministic: heartbeats were armed in
	// registerInstance; then one detector check loop, one ejector loop per
	// deployment, one autoscale loop per scaled deployment.
	if cfg.Detector != nil {
		p.zSafe = safeZ(cfg.Detector.PhiThreshold)
		p.suspicionTick = p.checkSuspicions
		p.after(cfg.Detector.CheckInterval, p.suspicionTick)
	}
	if cfg.RegionFailover != nil {
		p.regionTick = p.checkRegions
		p.after(cfg.RegionFailover.CheckInterval, p.regionTick)
	}
	if cfg.Ejection != nil {
		for _, md := range p.managed {
			md := md
			md.ejectTick = func(now des.Time) { p.evaluateEjections(now, md) }
			p.after(cfg.Ejection.Interval, md.ejectTick)
		}
	}
	for _, md := range p.managed {
		if md.scale != nil {
			md := md
			md.scaleTick = func(now des.Time) { p.evaluateScale(now, md) }
			p.after(md.scale.cfg.Interval, md.scaleTick)
		}
	}
	return p, nil
}

// pinnedServices lists services some topology node pins to a fixed
// instance — membership changes would invalidate the pin.
func pinnedServices(s *sim.Sim) map[string]bool {
	out := make(map[string]bool)
	topo := s.Topology()
	if topo == nil {
		return out
	}
	for ti := range topo.Trees {
		for ni := range topo.Trees[ti].Nodes {
			n := &topo.Trees[ti].Nodes[ni]
			if n.Instance >= 0 {
				out[n.Service] = true
			}
		}
	}
	return out
}

// registerInstance starts tracking one instance: detector state, ejection
// window, and — when a detector is configured — its heartbeat emitter.
func (p *Plane) registerInstance(md *managedDeployment, in *service.Instance) *instanceTrack {
	tr := &instanceTrack{md: md, in: in}
	if p.cfg.Ejection != nil {
		tr.lat = stats.NewP2Quantile(p.cfg.Ejection.Quantile)
	}
	md.tracks = append(md.tracks, tr)
	for in.Tier >= len(p.byInstance) {
		p.byInstance = append(p.byInstance, nil)
	}
	row := p.byInstance[in.Tier]
	for in.Index >= len(row) {
		row = append(row, nil)
	}
	row[in.Index] = tr
	p.byInstance[in.Tier] = row
	if p.cfg.Detector != nil {
		tr.hb = p.s.Stream("control", "hb", in.Name)
		tr.lastBeat = p.eng.Now()
		tr.beat = func(now des.Time) { p.onBeat(now, tr) }
		p.scheduleBeat(tr)
	}
	return tr
}

// Stop freezes the plane: every periodic loop exits at its next firing and
// no further actions are taken. Call before draining the engine in tests.
func (p *Plane) Stop() { p.stopped = true }

// Stats exposes the action counters.
func (p *Plane) Stats() *Stats { return &p.stats }

// LostRegions reports the regions currently declared lost, sorted by name.
// After every injected fault has healed the list must drain — a region
// still listed is stuck unrestored, which the chaos invariants flag.
func (p *Plane) LostRegions() []string {
	out := []string{}
	for r, lost := range p.lostRegions {
		if lost {
			out = append(out, p.s.Geography().Regions()[r].Name)
		}
	}
	sort.Strings(out)
	return out
}

// ObserveCall feeds one data-plane call outcome into the ejection window
// of the serving instance. Wire it as sim.Sim.OnCallResult — Attach does
// not install it implicitly so callers can compose observers.
func (p *Plane) ObserveCall(now des.Time, in *service.Instance, ok bool, latency des.Time) {
	if in.Tier >= len(p.byInstance) || in.Index >= len(p.byInstance[in.Tier]) {
		return
	}
	tr := p.byInstance[in.Tier][in.Index]
	if tr == nil {
		return
	}
	if ok {
		tr.succ++
		if tr.lat != nil {
			tr.lat.Add(float64(latency))
		}
	} else {
		tr.fail++
	}
}

// placeReplica picks the machine for a new replica: among the allowed
// machines (default all) that are not suspect (hosting a known-down
// instance) and have the cores free, the one with the most free cores,
// ties broken by registration order. Nil when none fits.
func (p *Plane) placeReplica(allowed []string, cores int, exclude string) (string, bool) {
	var bestName string
	bestFree := -1
	consider := func(name string) {
		if name == exclude {
			return
		}
		m, ok := p.s.Cluster().Machine(name)
		if !ok || m.FreeCores() < cores || p.machineSuspect(name) || !p.vantageReaches(m) {
			return
		}
		if m.FreeCores() > bestFree {
			bestName, bestFree = name, m.FreeCores()
		}
	}
	if len(allowed) > 0 {
		for _, name := range allowed {
			consider(name)
		}
	} else {
		for _, m := range p.s.Cluster().Machines() {
			consider(m.Name)
		}
	}
	return bestName, bestFree >= 0
}

// machineSuspect reports whether every live tracked instance on the
// machine is down — the plane's proxy for a crashed node (a machine crash
// takes all its instances with it; a single instance kill does not damn a
// machine whose other instances still beat). Replacements never land on a
// suspect machine.
func (p *Plane) machineSuspect(machine string) bool {
	seen := false
	for _, md := range p.managed {
		for _, tr := range md.tracks {
			if tr.replaced || md.dep.Retired(tr.in) || tr.in.Alloc.Machine.Name != machine {
				continue
			}
			seen = true
			if !tr.in.Down() {
				return false
			}
		}
	}
	return seen
}

// vantageReaches reports whether the plane can currently reach machine
// from its vantage — replicas are never placed through an open
// partition. Omniscient planes (no vantage) reach everything.
func (p *Plane) vantageReaches(m *cluster.Machine) bool {
	return p.vantage == nil || m == p.vantage || p.s.Reachable(p.vantage, m)
}

// beatVisible reports whether tr's heartbeat currently reaches the
// plane's vantage: a partition between the instance's machine and the
// vantage silences a live instance — the false-suspicion case the
// phi-accrual detector must weather.
func (p *Plane) beatVisible(tr *instanceTrack) bool {
	m := tr.in.Alloc.Machine
	return p.vantage == nil || m == p.vantage || p.s.Reachable(m, p.vantage)
}

// partitionBlind reports whether the plane's view of md is currently
// missing a live instance (up, but unreachable from the vantage).
func (p *Plane) partitionBlind(md *managedDeployment) bool {
	if p.vantage == nil {
		return false
	}
	for _, tr := range md.tracks {
		if tr.replaced || md.dep.Retired(tr.in) || tr.in.Down() {
			continue
		}
		if !p.beatVisible(tr) {
			return true
		}
	}
	return false
}

// ceilFrac is ceil(f·n) clamped to ≥ 1.
func ceilFrac(f float64, n int) int {
	c := int(math.Ceil(f * float64(n)))
	if c < 1 {
		c = 1
	}
	return c
}
