// Package uqsim is a scalable, validated queueing-network simulator for
// interactive microservices — a Go implementation of µqSim (Zhang, Gan,
// Delimitrou: "µqSim: Enabling Accurate and Scalable Simulation for
// Interactive Microservices", ISPASS 2019).
//
// µqSim models each microservice as a set of execution stages
// (queue–consumer pairs with epoll/socket batching semantics), composes
// microservices into dependency graphs with fan-out, fan-in
// synchronization and connection-level blocking, and simulates request
// flow across a cluster of DVFS-capable machines with shared
// network-interrupt processing.
//
// # Quick start
//
//	s := uqsim.New(uqsim.Options{Seed: 1})
//	s.AddMachine("m0", 16, uqsim.DefaultFreqSpec)
//	s.Deploy(uqsim.SingleStageService("api", uqsim.Exponential(100*uqsim.Microsecond)),
//		uqsim.RoundRobin, uqsim.Placement{Machine: "m0", Cores: 2})
//	s.SetTopology(uqsim.LinearTopology("main", "api"))
//	s.SetClient(uqsim.ClientConfig{Pattern: uqsim.ConstantRate(5000)})
//	rep, _ := s.Run(uqsim.Second/5, uqsim.Second)
//	fmt.Println(rep.Latency.P99())
//
// Prebuilt models of the paper's applications (NGINX, memcached, MongoDB,
// Apache Thrift, a Social Network) and builders for each of its
// experiments live in the Scenario functions (TwoTier, ThreeTier,
// LoadBalanced, Fanout, ThriftHello, SocialNetwork, TailAtScale).
// A JSON front-end mirroring the paper's Table I inputs is available via
// LoadConfig.
package uqsim

import (
	"uqsim/internal/apps"
	"uqsim/internal/cache"
	"uqsim/internal/chaos"
	"uqsim/internal/cluster"
	"uqsim/internal/config"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/farm"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/monitor"
	"uqsim/internal/netfault"
	"uqsim/internal/power"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
	"uqsim/internal/trace"
	"uqsim/internal/validate"
	"uqsim/internal/workload"
)

// ---- core simulation types ----

// Sim is one assembled simulation; see sim.Sim.
//
// Its OnRequestDone and OnJobDone hooks receive pointers into storage the
// simulation recycles: a hook must copy the fields it needs and must not
// keep the request or job past its own return (the tracer, the power
// manager and every experiment here copy).
type Sim = sim.Sim

// Options seeds a simulation's random streams.
type Options = sim.Options

// Report is the outcome of a run.
type Report = sim.Report

// InstanceReport summarizes one instance after a run: its counts and core
// utilization. Residence latency is reported per tier, in Report.PerTier.
type InstanceReport = sim.InstanceReport

// ClientConfig describes the workload source.
type ClientConfig = sim.ClientConfig

// NetworkConfig models per-machine interrupt processing.
type NetworkConfig = sim.NetworkConfig

// Placement pins an instance onto a machine.
type Placement = sim.Placement

// Policy selects instance load balancing.
type Policy = sim.Policy

// Load-balancing policies.
const (
	RoundRobin  = sim.RoundRobin
	Random      = sim.Random
	LeastLoaded = sim.LeastLoaded
)

// New creates an empty simulation.
func New(opts Options) *Sim { return sim.New(opts) }

// ---- virtual time ----

// Time is virtual time in nanoseconds.
type Time = des.Time

// Time units.
const (
	Nanosecond  = des.Nanosecond
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// ---- simulation engine ----

// Engine is the discrete-event loop every simulation runs on (see
// Sim.Engine). Post if you never cancel: the event's storage is recycled.
// Arm if you do and own the storage: the Event is a field of your own
// record, and arming and cancelling it allocate nothing. At and After
// allocate a handle per call and are for cold paths.
type Engine = des.Engine

// Event is a cancellable scheduled callback: the handle At returns, or the
// caller-owned storage Arm queues. Its zero value is ready to arm.
type Event = des.Event

// ---- cluster ----

// FreqSpec is a machine's DVFS range.
type FreqSpec = cluster.FreqSpec

// DefaultFreqSpec matches the paper's Xeon E5-2660 v3 (1.2–2.6 GHz).
var DefaultFreqSpec = cluster.DefaultFreqSpec

// ---- multi-region geography ----

// Region groups machines (directly or by rack) into one geographic
// failure and latency domain; install with Sim.SetGeography.
type Region = cluster.Region

// WANLink is the latency/bandwidth cost of one inter-region hop.
type WANLink = cluster.WANLink

// Geography is the installed region map: WAN link configuration,
// nearest-region ordering, and machine→region lookups.
type Geography = cluster.Geography

// ReplicationSpec declares a deployment geo-replicated across regions
// with asynchronous replication lag; install with Sim.SetReplication.
// Reads served by a non-promoted remote region within the lag window
// count as stale (Report.StaleReads).
type ReplicationSpec = sim.ReplicationSpec

// ---- service models ----

// Blueprint describes a microservice's internal architecture.
type Blueprint = service.Blueprint

// StageSpec is one execution stage.
type StageSpec = service.StageSpec

// PathSpec is one execution path through stages.
type PathSpec = service.PathSpec

// Instance is one deployed copy of a service. Sim.OnCallResult reports each
// call against the instance that served or lost it, not its name:
// func(now Time, in *Instance, ok bool, latency Time); in.Name names it.
type Instance = service.Instance

// Execution models.
const (
	ModelSimple   = service.ModelSimple
	ModelThreaded = service.ModelThreaded
)

// SingleStageService builds a one-stage FIFO microservice.
func SingleStageService(name string, cost Sampler) *Blueprint {
	return service.SingleStage(name, cost)
}

// ---- distributions ----

// Sampler draws values (durations in ns) from a distribution.
type Sampler = dist.Sampler

// Deterministic returns a point-mass sampler.
func Deterministic(v float64) Sampler { return dist.NewDeterministic(v) }

// Exponential returns an exponential sampler with the given mean (ns; the
// Time units compose naturally: Exponential(100*uqsim.Microsecond)).
func Exponential(mean Time) Sampler { return dist.NewExponential(float64(mean)) }

// Erlang returns an Erlang-k sampler with the given overall mean.
func Erlang(k int, mean Time) Sampler { return dist.NewErlang(k, float64(mean)) }

// LogNormal returns a lognormal sampler from real-space moments.
func LogNormal(mean, stddev Time) Sampler {
	return dist.LogNormalFromMoments(float64(mean), float64(stddev))
}

// ---- topology ----

// Topology is the inter-microservice description.
type Topology = graph.Topology

// TreeNode is one inter-service path node.
type TreeNode = graph.Node

// Tree is one weighted path tree.
type Tree = graph.Tree

// ConnPool declares a connection pool.
type ConnPool = graph.ConnPool

// LinearTopology builds a pipeline through the named services.
func LinearTopology(name string, services ...string) *Topology {
	return graph.Linear(name, services...)
}

// ---- workload ----

// Pattern yields a time-varying arrival rate.
type Pattern = workload.Pattern

// ConstantRate is a fixed QPS target.
type ConstantRate = workload.ConstantRate

// Diurnal is a sinusoidal load pattern.
type Diurnal = workload.Diurnal

// Burst is a two-state Markov-modulated (ON/OFF) load pattern.
type Burst = workload.Burst

// Arrival processes.
const (
	Poisson = workload.Poisson
	Uniform = workload.Uniform
)

// ---- session-based user flows ----

// SessionConfig drives the client with a population of journey-walking
// users instead of a bare arrival rate; set it as ClientConfig.Sessions.
// The population is a first-class signal: phased ramps, flash crowds, and
// on/off bursty users compose into the offered load.
type SessionConfig = workload.SessionConfig

// Journey is a weighted multi-step user flow (browse → search → buy).
type Journey = workload.Journey

// SessionStep is one step of a journey: think, then issue a request tree.
type SessionStep = workload.SessionStep

// PopPhase is one knot of the piecewise-linear population envelope.
type PopPhase = workload.PopPhase

// FlashCrowd superimposes a transient trapezoid of extra users.
type FlashCrowd = workload.FlashCrowd

// OnOff makes every user alternate active and silent periods.
type OnOff = workload.OnOff

// ---- hybrid fidelity ----

// HybridConfig splits the workload into a sampled foreground simulated at
// full discrete-event fidelity and a fluid background carried as per-epoch
// M/M/k equilibria that inject queueing wait into sampled requests;
// install with Sim.SetHybrid. SampleRate 1.0 is bit-identical to full
// fidelity; smaller rates trade per-request variance for the capacity to
// carry million-user populations. Report.BackgroundArrivals/
// BackgroundCompletions/BackgroundShed account the fluid tier's traffic.
type HybridConfig = hybrid.Config

// ---- measurements ----

// LatencyHist is a log-binned latency histogram with quantile queries.
type LatencyHist = stats.LatencyHist

// TimeSeries records (virtual time, value) pairs.
type TimeSeries = stats.TimeSeries

// TimeSeriesPoint is one (virtual time, value) observation.
type TimeSeriesPoint = stats.Point

// ---- configuration front-end ----

// ConfigSetup is a simulation assembled from JSON configs.
type ConfigSetup = config.Setup

// LoadConfig reads machines.json, service.json, graph.json, path.json, and
// client.json from dir (the paper's Table I inputs), plus the optional
// faults.json and control.json.
func LoadConfig(dir string) (*ConfigSetup, error) { return config.LoadDir(dir) }

// ---- prebuilt application models ----

// Application blueprints from the paper's evaluation.
var (
	// MemcachedModel is the paper's Listing 1 memcached.
	MemcachedModel = apps.Memcached
	// NginxModel is the NGINX webserver/proxy model.
	NginxModel = apps.Nginx
	// MongoDBModel is the multi-threaded, disk-blocking MongoDB model.
	MongoDBModel = apps.MongoDB
	// ThriftServerModel is an Apache Thrift RPC server model.
	ThriftServerModel = apps.ThriftServer
	// DefaultNetwork is the calibrated interrupt-processing model.
	DefaultNetwork = apps.DefaultNetwork
)

// ---- prebuilt experiment scenarios ----

// Scenario configurations (see the apps package for field semantics).
type (
	TwoTierConfig       = apps.TwoTierConfig
	ThreeTierConfig     = apps.ThreeTierConfig
	ScaleOutConfig      = apps.ScaleOutConfig
	ThriftHelloConfig   = apps.ThriftHelloConfig
	SocialNetworkConfig = apps.SocialNetworkConfig
	TailAtScaleConfig   = apps.TailAtScaleConfig
)

// CachedTwoTierConfig parameterizes the emergent-cache scenario, where the
// cache-hit probability is derived from a real LRU over Zipf-popular keys
// instead of being configured.
type CachedTwoTierConfig = apps.CachedTwoTierConfig

// LRUCache is the live cache of a CachedTwoTier scenario.
type LRUCache = cache.LRU

// CachedTwoTier assembles the emergent-cache two-tier scenario; read the
// returned cache's HitRatio after the run.
func CachedTwoTier(cfg CachedTwoTierConfig) (*Sim, *LRUCache, error) {
	return apps.CachedTwoTier(cfg)
}

// Scenario builders for the paper's experiments.
func TwoTier(cfg TwoTierConfig) (*Sim, error)             { return apps.TwoTier(cfg) }
func ThreeTier(cfg ThreeTierConfig) (*Sim, error)         { return apps.ThreeTier(cfg) }
func LoadBalanced(cfg ScaleOutConfig) (*Sim, error)       { return apps.LoadBalanced(cfg) }
func Fanout(cfg ScaleOutConfig) (*Sim, error)             { return apps.Fanout(cfg) }
func ThriftHello(cfg ThriftHelloConfig) (*Sim, error)     { return apps.ThriftHello(cfg) }
func SocialNetwork(cfg SocialNetworkConfig) (*Sim, error) { return apps.SocialNetwork(cfg) }
func TailAtScale(cfg TailAtScaleConfig) (*Sim, error)     { return apps.TailAtScale(cfg) }

// ---- fault injection & resilience ----

// FaultPlan is a deterministic schedule of fault events; install with
// Sim.InstallFaults after deployments and topology exist.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault action.
type FaultEvent = fault.Event

// Fault kinds.
const (
	CrashMachine    = fault.CrashMachine
	RecoverMachine  = fault.RecoverMachine
	KillInstance    = fault.KillInstance
	RestartInstance = fault.RestartInstance
	DegradeFreq     = fault.DegradeFreq
	EdgeLatency     = fault.EdgeLatency
	CrashDomain     = fault.CrashDomain
	RecoverDomain   = fault.RecoverDomain
	PartitionStart  = fault.PartitionStart
	SetLink         = fault.SetLink
	LoadStep        = fault.LoadStep
)

// FailureDomain groups machines that fail together (a rack, a power
// feed); declare with Sim.SetDomains, then crash and recover the whole
// group with CrashDomain/RecoverDomain fault events. Sim.DomainUp reports
// the live fraction of a domain's machines.
type FailureDomain = netfault.Domain

// NetState carries a simulation's network-fault state and its
// attempt-level counters (Unreachable, LinkDrops, LinkDups); read it via
// Sim.Net. Monitor.WatchGauge can sample any of them as a time series.
type NetState = netfault.State

// ResiliencePolicy guards RPC edges with attempt timeouts, backoff retries,
// and circuit breaking; install with Sim.SetServicePolicy or
// Sim.SetNodePolicy. Queue-length load shedding is Sim.SetMaxQueue.
type ResiliencePolicy = fault.Policy

// BreakerSpec configures a ResiliencePolicy's circuit breaker.
type BreakerSpec = fault.BreakerSpec

// HedgeSpec configures a ResiliencePolicy's hedged (backup) requests:
// after a fixed delay or an observed latency quantile, a second attempt
// races on a different healthy instance and the first response wins.
type HedgeSpec = fault.HedgeSpec

// QueueDiscipline selects a service's per-instance entry-queue overload
// behavior beyond plain FIFO; install with Sim.SetQueueDiscipline.
type QueueDiscipline = fault.QueueDiscipline

// Queue discipline kinds.
const (
	QueueFIFO      = fault.QueueFIFO
	QueueCoDel     = fault.QueueCoDel
	QueueLIFO      = fault.QueueLIFO
	QueueCoDelLIFO = fault.QueueCoDelLIFO
)

// ErrorCounts breaks down failed call attempts per target service (see
// Report.Errors).
type ErrorCounts = sim.ErrorCounts

// Leaked is a report's conservation residue: arrivals minus completions,
// timeouts, deadline expiries, shed, dropped, unreachable and in-flight
// requests. Anything but 0 means requests vanished from the accounting.
func Leaked(rep *Report) int64 { return validate.Leaked(rep) }

// ---- monitoring ----

// Monitor samples per-instance queue lengths, in-flight counts, and core
// utilization on a virtual-time cadence.
type Monitor = monitor.Monitor

// MonitorSeries holds one watched instance's sampled time series.
type MonitorSeries = monitor.Series

// NewMonitor creates a monitor on the simulation's engine sampling every
// interval of virtual time. Watch instances (e.g. from
// Sim.Deployment(name).Instances) before Run, then Start it.
func NewMonitor(s *Sim, interval Time) *Monitor {
	return monitor.New(s.Engine(), interval)
}

// ---- request tracing ----

// Tracer samples requests and reconstructs per-request execution
// waterfalls (which tier on the critical path was slow).
type Tracer = trace.Tracer

// TraceRequest is one traced request with its spans.
type TraceRequest = trace.Request

// TraceSpan is one path-node execution within a traced request.
type TraceSpan = trace.Span

// NewTracer creates a tracer recording one of every sampleEvery requests.
func NewTracer(sampleEvery int) *Tracer { return trace.New(sampleEvery) }

// AttachTracer wires a tracer into a simulation's job/request hooks.
// Attach before Run; it replaces any previously installed hooks. The
// tracer copies what it records, as every hook must (see Sim).
func AttachTracer(s *Sim, t *Tracer) {
	s.OnJobDone = t.OnJobDone
	s.OnRequestDone = t.OnRequestDone
}

// ---- self-healing control plane ----

// ControlPlane closes the detect→decide→act loop inside the simulation:
// heartbeat failure detection, outlier ejection, failover, and reactive
// autoscaling, all as ordinary simulation events.
type ControlPlane = control.Plane

// ControlConfig selects and parameterizes the control loops.
type ControlConfig = control.Config

// DetectorConfig parameterizes phi-accrual heartbeat failure detection.
type DetectorConfig = control.DetectorConfig

// EjectionConfig parameterizes per-instance outlier ejection.
type EjectionConfig = control.EjectionConfig

// FailoverConfig parameterizes replacement of detected-dead instances.
type FailoverConfig = control.FailoverConfig

// RegionFailoverConfig parameterizes region-loss failover: when every
// tracked instance in a region is declared dead, the plane waits out a
// drain grace and then promotes the nearest healthy replica region of
// each geo-replicated deployment. Requires a Detector and a Geography.
type RegionFailoverConfig = control.RegionFailoverConfig

// AutoscaleConfig parameterizes one service's reactive autoscaler.
type AutoscaleConfig = control.AutoscaleConfig

// ControlStats counts every action a control plane took.
type ControlStats = control.Stats

// AttachControl wires a control plane into a simulation before Run. With
// ejection configured, also set s.OnCallResult = plane.ObserveCall;
// ObserveCall takes the serving *Instance and finds its tracker by the
// instance's Tier and Index. Call plane.Stop() after Run to
// quiesce the control loops.
func AttachControl(s *Sim, cfg ControlConfig) (*ControlPlane, error) {
	return control.Attach(s, cfg)
}

// ---- power management ----

// PowerManager runs the paper's Algorithm 1 QoS-aware DVFS controller.
type PowerManager = power.Manager

// PowerConfig parameterizes the controller.
type PowerConfig = power.Config

// PowerTier is one controllable tier.
type PowerTier = power.Tier

// NewPowerManager creates a controller; wire mgr.Observe to
// Sim.OnRequestDone and call mgr.Start before Run.
func NewPowerManager(s *Sim, cfg PowerConfig, tiers []*PowerTier) (*PowerManager, error) {
	return power.New(s, cfg, tiers)
}

// TiersOf builds PowerTiers from named deployments of s.
func TiersOf(s *Sim, names ...string) ([]*PowerTier, error) {
	var tiers []*PowerTier
	for _, name := range names {
		dep, ok := s.Deployment(name)
		if !ok {
			return nil, &UnknownDeploymentError{Name: name}
		}
		tier := &PowerTier{Name: name}
		for _, in := range dep.Instances {
			tier.Allocs = append(tier.Allocs, in.Alloc)
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// UnknownDeploymentError reports a TiersOf lookup failure.
type UnknownDeploymentError struct{ Name string }

func (e *UnknownDeploymentError) Error() string {
	return "uqsim: unknown deployment " + e.Name
}

// ---- chaos search ----

// ChaosOptions parameterizes a seeded fault-schedule search over a
// config directory: trial count, master seed, corpus destination, and
// the recovery/determinism invariant thresholds.
type ChaosOptions = chaos.Options

// ChaosResult summarizes a search: trials completed and the shrunken
// findings archived.
type ChaosResult = chaos.Result

// ChaosFinding is one invariant violation, delta-debugged to a minimal
// replayable fault schedule.
type ChaosFinding = chaos.Finding

// ChaosViolation identifies which invariant a scenario broke and how.
type ChaosViolation = chaos.Violation

// ChaosReplayResult is the outcome of re-running one archived finding
// against the recorded violation and fingerprint.
type ChaosReplayResult = chaos.ReplayResult

// RunChaos generates seeded random fault schedules against the config
// directory in opts, verifies each against the simulator's invariants
// (conservation, drain, same-seed determinism, post-heal recovery),
// shrinks every violation to a minimal reproduction, and archives the
// repros as replayable corpus entries. The same engine backs
// `uqsim chaos`.
func RunChaos(opts ChaosOptions) (*ChaosResult, error) { return chaos.Run(opts) }

// ReplayChaosFinding re-runs one corpus entry directory and reports
// whether the archived violation still reproduces bit-identically.
func ReplayChaosFinding(configDir, entryDir string) (*ChaosReplayResult, error) {
	return chaos.Replay(configDir, entryDir)
}

// ---- fault-tolerant experiment farm ----

// FarmCampaign describes one experiment campaign — a load sweep or a
// chaos search expanded into content-hashed, independently runnable job
// specs and journaled to a durable spool directory.
type FarmCampaign = farm.Campaign

// FarmJobSpec is one unit of farm work: a single sweep point or chaos
// trial, content-addressed so retries and duplicate completions are safe.
type FarmJobSpec = farm.JobSpec

// FarmOptions configures a dispatcher run: worker pool size, lease TTL,
// per-job watchdog, poison-quarantine threshold, resume.
type FarmOptions = farm.Options

// FarmSummary is the accounting of one dispatcher run (commits, requeues,
// quarantines, respawns).
type FarmSummary = farm.Summary

// FarmMerged is a campaign's results reassembled in campaign order —
// byte-identical to a serial run at any worker count.
type FarmMerged = farm.Merged

// FarmAuditReport is the exactly-once accounting of a spool journal.
type FarmAuditReport = farm.AuditReport

// NewFarmSweepCampaign builds a load-sweep campaign over configDir,
// pinning the exact configuration bytes into every job spec.
func NewFarmSweepCampaign(configDir string, from, to, step float64) (*FarmCampaign, error) {
	return farm.NewSweepCampaign(configDir, from, to, step)
}

// NewFarmChaosCampaign builds a chaos-search campaign over configDir.
func NewFarmChaosCampaign(configDir string, seed uint64, trials, maxActions int) (*FarmCampaign, error) {
	return farm.NewChaosCampaign(configDir, seed, trials, maxActions)
}

// RunFarm executes a campaign across a pool of crash-recovering worker
// subprocesses behind a lease-based queue: leases expire back to the
// queue, hung workers are killed by the per-job watchdog, crashed workers
// respawn with backoff, poison jobs are quarantined after repeated
// failures, and results commit idempotently. The same engine backs
// `uqsim farm`.
func RunFarm(o FarmOptions, c *FarmCampaign) (*FarmSummary, error) { return farm.Run(o, c) }

// MergeFarm replays a spool journal into campaign-order results.
func MergeFarm(spoolDir string) (*FarmMerged, error) { return farm.Merge(spoolDir) }

// AuditFarm checks a spool journal's exactly-once accounting: every job
// committed or quarantined at most once, no conflicting or orphaned
// journal entries.
func AuditFarm(spoolDir string) (*FarmAuditReport, error) { return farm.Audit(spoolDir) }
