// Package config is µqSim's declarative front-end, mirroring the paper's
// Table I inputs:
//
//	machines.json  — servers, cores, DVFS ranges, auxiliary pools, network
//	service.json   — internal architecture of each microservice
//	graph.json     — microservice deployment (instances → machines)
//	path.json      — inter-microservice path trees and connection pools
//	client.json    — input load pattern
//
// Processing-time histograms (the paper's sixth input) are embedded in the
// service.json stage specs via dist.Spec's "histogram" type.
package config

import (
	"uqsim/internal/dist"
)

// MachinesFile is the machines.json schema.
type MachinesFile struct {
	Machines []MachineSpec `json:"machines"`
	// Network optionally enables per-machine interrupt processing.
	Network *NetworkSpec `json:"network,omitempty"`
	// Topology optionally groups machines into failure domains (racks,
	// power zones) for correlated fault injection.
	Topology *TopologySpec `json:"topology,omitempty"`
}

// TopologySpec declares the cluster's failure hierarchy: overlapping
// failure domains (racks, power zones) and, above them, disjoint
// geographic regions with a WAN model between them.
type TopologySpec struct {
	Domains []DomainSpec `json:"domains,omitempty"`
	// Regions partitions machines into geographic sites. With regions
	// declared, routing prefers the nearest healthy region and
	// cross-region hops pay the WAN model's latency.
	Regions []RegionSpec `json:"regions,omitempty"`
	// WAN models inter-region links; requires Regions.
	WAN *WANSpec `json:"wan,omitempty"`
}

// RegionSpec is one geographic site. Machines lists members directly;
// Racks pulls in every machine of the named topology domains — the
// rack→region hierarchy. A machine may belong to only one region.
type RegionSpec struct {
	Name     string   `json:"name"`
	Machines []string `json:"machines,omitempty"`
	Racks    []string `json:"racks,omitempty"`
}

// WANSpec is the inter-region network model: a default latency and
// per-KB serialization cost for every region pair, with optional
// symmetric per-pair overrides.
type WANSpec struct {
	LatencyMs float64       `json:"latency_ms,omitempty"`
	PerKBUs   float64       `json:"per_kb_us,omitempty"`
	Links     []WANLinkSpec `json:"links,omitempty"`
}

// WANLinkSpec overrides the WAN model between one region pair (applies
// to both directions).
type WANLinkSpec struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	PerKBUs   float64 `json:"per_kb_us,omitempty"`
}

// DomainSpec is one named failure domain: a set of machines that share
// fate under domain crash and recovery fault events. Domains may
// overlap (a machine can sit in both a rack and a power zone).
type DomainSpec struct {
	Name     string   `json:"name"`
	Machines []string `json:"machines"`
}

// MachineSpec declares one server.
type MachineSpec struct {
	Name  string     `json:"name"`
	Cores int        `json:"cores"`
	Freq  *FreqSpec  `json:"freq,omitempty"`
	Pools []PoolSpec `json:"pools,omitempty"`
}

// FreqSpec is a DVFS range in MHz.
type FreqSpec struct {
	MinMHz  float64 `json:"min_mhz"`
	MaxMHz  float64 `json:"max_mhz"`
	StepMHz float64 `json:"step_mhz"`
}

// PoolSpec declares an auxiliary machine resource (e.g. disk spindles).
type PoolSpec struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
}

// NetworkSpec configures the shared interrupt-processing service.
type NetworkSpec struct {
	CoresPerMachine int        `json:"cores_per_machine"`
	PerMsg          *dist.Spec `json:"per_msg,omitempty"`
	PerKBUs         float64    `json:"per_kb_us,omitempty"`
	ClientTx        bool       `json:"client_tx,omitempty"`
}

// ServicesFile is the service.json schema.
type ServicesFile struct {
	Services []ServiceSpec `json:"services"`
}

// ServiceSpec mirrors the paper's Listing 1 plus the execution model.
type ServiceSpec struct {
	ServiceName string      `json:"service_name"`
	Model       string      `json:"model,omitempty"` // "simple" (default) or "multi-threaded"
	Threads     int         `json:"threads,omitempty"`
	CtxSwitchUs float64     `json:"ctx_switch_us,omitempty"`
	Stages      []StageSpec `json:"stages"`
	Paths       []PathSpec  `json:"paths"`
	PathProbs   []float64   `json:"path_probs,omitempty"`
}

// StageSpec describes one execution stage.
type StageSpec struct {
	StageName string `json:"stage_name"`
	// QueueType: "single" (default), "epoll", or "socket".
	QueueType string `json:"queue_type,omitempty"`
	Batching  bool   `json:"batching,omitempty"`
	// QueueParameter is the per-connection batch bound N of
	// epoll/socket queues (the paper's "queue_parameter").
	QueueParameter int `json:"queue_parameter,omitempty"`
	BatchLimit     int `json:"batch_limit,omitempty"`

	Base    *dist.Spec `json:"base,omitempty"`
	PerJob  *dist.Spec `json:"per_job,omitempty"`
	PerKBUs float64    `json:"per_kb_us,omitempty"`
	// Pool executes the stage against a named machine pool (blocking
	// I/O) instead of a core.
	Pool string `json:"pool,omitempty"`
}

// PathSpec is an execution path through stage indices.
type PathSpec struct {
	PathName string `json:"path_name"`
	Stages   []int  `json:"stages"`
}

// GraphFile is the graph.json schema: where services run.
type GraphFile struct {
	Deployments []DeploymentSpec `json:"deployments"`
}

// DeploymentSpec maps a service's instances onto machines.
type DeploymentSpec struct {
	Service string `json:"service"`
	// LB: "round_robin" (default), "random", or "least_loaded".
	LB        string         `json:"lb,omitempty"`
	Instances []InstanceSpec `json:"instances"`
	// Replication declares the service geo-replicated across regions
	// (requires topology.regions in machines.json).
	Replication *ReplicationSpec `json:"replication,omitempty"`
}

// ReplicationSpec geo-replicates a deployment: its per-region replica
// sets serve reads everywhere, but a read served outside the request's
// origin region is stale until the serving region has been promoted for
// at least lag_ms. Regions lists the replica set (default: every region
// hosting an instance); each listed region must host at least one.
type ReplicationSpec struct {
	Regions []string `json:"regions,omitempty"`
	LagMs   float64  `json:"lag_ms,omitempty"`
}

// InstanceSpec is one instance placement.
type InstanceSpec struct {
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
}

// PathsFile is the path.json schema: inter-service trees + pools.
type PathsFile struct {
	Pools []ConnPoolSpec `json:"pools,omitempty"`
	Trees []TreeSpec     `json:"trees"`
}

// ConnPoolSpec declares a connection pool.
type ConnPoolSpec struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
}

// TreeSpec is one weighted inter-microservice path tree.
type TreeSpec struct {
	Name   string     `json:"name"`
	Weight float64    `json:"weight"`
	Root   int        `json:"root"`
	Nodes  []NodeSpec `json:"nodes"`
}

// NodeSpec is one path node.
type NodeSpec struct {
	ID       int      `json:"id"`
	Service  string   `json:"service"`
	Path     string   `json:"path,omitempty"`
	Instance *int     `json:"instance,omitempty"` // nil → load-balance
	Children []int    `json:"children,omitempty"`
	Acquire  []string `json:"acquire,omitempty"`
	Release  []string `json:"release,omitempty"`
}

// ClientFile is the client.json schema.
type ClientFile struct {
	Seed uint64 `json:"seed,omitempty"`
	// QPS sets a constant open-loop rate; Diurnal overrides it.
	QPS     float64      `json:"qps,omitempty"`
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
	// Process: "poisson" (default) or "uniform".
	Process     string `json:"process,omitempty"`
	Connections int    `json:"connections,omitempty"`
	// SizeKB samples the request payload size. The spec's duration
	// fields are read as KB: {"type":"exponential","mean_us":1} means
	// exponentially distributed sizes with mean 1 KB.
	SizeKB *dist.Spec `json:"size_kb,omitempty"`
	// ClosedUsers switches to a closed-loop client.
	ClosedUsers int        `json:"closed_users,omitempty"`
	Think       *dist.Spec `json:"think,omitempty"`

	// Sessions switches to a session-based client: a population of users
	// walking weighted multi-step journeys over the topology's trees.
	// Mutually exclusive with qps/diurnal/closed_users.
	Sessions *SessionsSpec `json:"sessions,omitempty"`

	// Fidelity selects the engine tier: "" or "full" simulates every
	// request at stage-level DES fidelity; "hybrid" simulates only
	// sample_rate of them and drives the rest as fluid background load
	// from the analytic M/M/k equilibrium.
	Fidelity string `json:"fidelity,omitempty"`
	// SampleRate is the hybrid foreground fraction in (0, 1]
	// (default 0.01). Requires fidelity "hybrid".
	SampleRate float64 `json:"sample_rate,omitempty"`
	// HybridEpochMs is the fluid tier's equilibrium re-evaluation
	// interval (default 50ms). Requires fidelity "hybrid".
	HybridEpochMs float64 `json:"hybrid_epoch_ms,omitempty"`

	// Region homes the client in one of topology.regions: entry traffic
	// prefers that region and cross-origin reads of replicated services
	// count as stale while the serving region lags.
	Region string `json:"region,omitempty"`

	// TimeoutMs makes the client give up on requests older than this
	// (0: infinite patience); MaxRetries re-issues timed-out requests.
	TimeoutMs  float64 `json:"timeout_ms,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`

	// Budget samples each request's end-to-end deadline budget (spec
	// durations in µs, as everywhere); an expired budget short-circuits
	// the request's remaining subtree and cancels its queued work.
	// BudgetMs is shorthand for a constant budget in milliseconds; the
	// two are mutually exclusive. Omitted: no deadlines.
	Budget   *dist.Spec `json:"budget,omitempty"`
	BudgetMs float64    `json:"budget_ms,omitempty"`

	WarmupS   float64 `json:"warmup_s,omitempty"`
	DurationS float64 `json:"duration_s"`
}

// DiurnalSpec is a sinusoidal load pattern.
type DiurnalSpec struct {
	Base      float64 `json:"base"`
	Amplitude float64 `json:"amplitude"`
	PeriodS   float64 `json:"period_s"`
	Floor     float64 `json:"floor,omitempty"`
}

// SessionsSpec is client.json's session-based population: journeys of
// tree-targeting steps with think times, a phased population envelope,
// transient flash crowds, and per-user on/off burstiness.
type SessionsSpec struct {
	// Users is the base population (required >= 1 unless phases set one).
	Users    int           `json:"users,omitempty"`
	Journeys []JourneySpec `json:"journeys"`
	// Phases ramp the population to new targets over time (sorted by at_s).
	Phases []PopPhaseSpec `json:"phases,omitempty"`
	// FlashCrowds superimpose transient extra-user trapezoids.
	FlashCrowds []FlashCrowdSpec `json:"flash_crowds,omitempty"`
	// OnOff makes every user bursty: exponential active/silent cycles.
	OnOff *OnOffSpec `json:"on_off,omitempty"`
	// PopTickMs is the population-control poll interval (default 10ms;
	// only polled when phases or flash crowds are present).
	PopTickMs float64 `json:"pop_tick_ms,omitempty"`
}

// JourneySpec is one weighted user flow, e.g. browse → search → buy.
type JourneySpec struct {
	Name string `json:"name"`
	// Weight is the journey's selection weight (default 1).
	Weight float64    `json:"weight,omitempty"`
	Steps  []StepSpec `json:"steps"`
}

// StepSpec is one journey step: think, then issue the named request tree.
type StepSpec struct {
	// Tree names a path.json tree.
	Tree string `json:"tree"`
	// Think samples the pre-request think time (spec durations in µs).
	Think *dist.Spec `json:"think,omitempty"`
}

// PopPhaseSpec ramps the population linearly to users over
// [at_s, at_s+ramp_s] (ramp_s 0: step change).
type PopPhaseSpec struct {
	AtS   float64 `json:"at_s"`
	Users int     `json:"users"`
	RampS float64 `json:"ramp_s,omitempty"`
}

// FlashCrowdSpec is a transient trapezoid of extra users.
type FlashCrowdSpec struct {
	AtS       float64 `json:"at_s"`
	Extra     int     `json:"extra"`
	RampUpS   float64 `json:"ramp_up_s,omitempty"`
	HoldS     float64 `json:"hold_s,omitempty"`
	RampDownS float64 `json:"ramp_down_s,omitempty"`
}

// OnOffSpec alternates every user between exponential active and silent
// periods.
type OnOffSpec struct {
	MeanOnS  float64 `json:"mean_on_s"`
	MeanOffS float64 `json:"mean_off_s"`
}

// FaultsFile is the optional faults.json schema: per-edge resilience
// policies, queue-length load shedding, and a deterministic fault-injection
// plan.
type FaultsFile struct {
	Policies []EdgePolicySpec `json:"policies,omitempty"`
	Shedding []ShedSpec       `json:"shedding,omitempty"`
	Queues   []QueueSpec      `json:"queues,omitempty"`
	Events   []FaultEventSpec `json:"events,omitempty"`
	// Network schedules network-level faults: partitions and gray links.
	Network *NetFaultSpec `json:"network,omitempty"`
}

// NetFaultSpec is the faults.json network section: time-varying
// partitions in the per-machine-pair reachability matrix plus lossy
// (gray) links on cross-machine RPC edges.
type NetFaultSpec struct {
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	Links      []LinkSpec      `json:"links,omitempty"`
}

// PartitionSpec cuts reachability between two machine groups from at_s
// until until_s (0: never heals). One-way partitions cut only group_a →
// group_b traffic, modelling asymmetric routing failures.
type PartitionSpec struct {
	AtS    float64  `json:"at_s"`
	UntilS float64  `json:"until_s,omitempty"`
	GroupA []string `json:"group_a"`
	GroupB []string `json:"group_b"`
	OneWay bool     `json:"one_way,omitempty"`
}

// LinkSpec degrades one directed machine pair (or, with src and dst both
// empty, every cross-machine pair) with probabilistic message drop and
// duplication from at_s until until_s (0: permanent).
type LinkSpec struct {
	AtS    float64 `json:"at_s"`
	UntilS float64 `json:"until_s,omitempty"`
	Src    string  `json:"src,omitempty"`
	Dst    string  `json:"dst,omitempty"`
	Drop   float64 `json:"drop,omitempty"`
	Dup    float64 `json:"dup,omitempty"`
}

// EdgePolicySpec guards RPC edges with timeouts, backoff retries, and
// circuit breaking. With only Service set it covers every edge into that
// service; with Tree and Node set it overrides the policy for the edge into
// that one path-tree node.
type EdgePolicySpec struct {
	Service       string       `json:"service,omitempty"`
	Tree          string       `json:"tree,omitempty"`
	Node          *int         `json:"node,omitempty"`
	TimeoutMs     float64      `json:"timeout_ms,omitempty"`
	MaxRetries    int          `json:"max_retries,omitempty"`
	BackoffBaseMs float64      `json:"backoff_base_ms,omitempty"`
	BackoffJitter float64      `json:"backoff_jitter,omitempty"`
	Breaker       *BreakerSpec `json:"breaker,omitempty"`
	Hedge         *HedgeSpec   `json:"hedge,omitempty"`
}

// HedgeSpec configures hedged (backup) requests on an edge: after the
// delay, a second attempt races on a different healthy instance and the
// first response wins. Exactly one of DelayMs (fixed) or Quantile
// (observed edge latency, e.g. 0.95) must be set.
type HedgeSpec struct {
	DelayMs    float64 `json:"delay_ms,omitempty"`
	Quantile   float64 `json:"quantile,omitempty"`
	MinSamples int     `json:"min_samples,omitempty"`
	Jitter     float64 `json:"jitter,omitempty"`
}

// BreakerSpec configures an edge's circuit breaker.
type BreakerSpec struct {
	ErrorThreshold float64 `json:"error_threshold"`
	Window         int     `json:"window"`
	CooldownMs     float64 `json:"cooldown_ms"`
}

// ShedSpec bounds a service's per-instance queue length: arrivals beyond
// max_queue queued jobs are rejected immediately.
type ShedSpec struct {
	Service  string `json:"service"`
	MaxQueue int    `json:"max_queue"`
}

// QueueSpec selects a service's per-instance queue discipline beyond the
// default FIFO: "codel" sheds jobs whose queue sojourn persistently
// exceeds target_ms (CoDel control law over interval_ms), "lifo" serves
// newest-first while the head sojourn exceeds target_ms, "codel_lifo"
// does both.
type QueueSpec struct {
	Service    string  `json:"service"`
	Kind       string  `json:"kind"`
	TargetMs   float64 `json:"target_ms,omitempty"`
	IntervalMs float64 `json:"interval_ms,omitempty"`
}

// FaultEventSpec schedules one fault action. Kind names a row of the fault
// kinds table in internal/fault (fault.Kinds lists them); kinds acting on
// machine groups or links go in the network section instead.
type FaultEventSpec struct {
	AtS     float64 `json:"at_s"`
	Kind    string  `json:"kind"`
	Machine string  `json:"machine,omitempty"`
	Service string  `json:"service,omitempty"`
	// Instance selects one instance of Service; omitted → every instance.
	Instance *int    `json:"instance,omitempty"`
	FreqMHz  float64 `json:"freq_mhz,omitempty"`
	ExtraMs  float64 `json:"extra_ms,omitempty"`
	// UntilS ends a windowed kind (0: never); other kinds reject it.
	UntilS float64 `json:"until_s,omitempty"`
	// Domain names a machines.json topology domain (or region) for the
	// domain kinds; StaggerMs spaces the per-machine events within the
	// burst.
	Domain    string  `json:"domain,omitempty"`
	StaggerMs float64 `json:"stagger_ms,omitempty"`
	// Factor multiplies the open-loop arrival rate (a load step).
	Factor float64 `json:"factor,omitempty"`
}

// ControlFile is the optional control.json schema: the self-healing
// control plane. Omitted sections disable the corresponding controller
// (failover additionally requires a heartbeat detector).
type ControlFile struct {
	// Services restricts the plane to these deployments (default: all).
	Services  []string        `json:"services,omitempty"`
	Heartbeat *HeartbeatSpec  `json:"heartbeat,omitempty"`
	Ejection  *EjectionSpec   `json:"ejection,omitempty"`
	Failover  *FailoverSpec   `json:"failover,omitempty"`
	Autoscale []AutoscaleSpec `json:"autoscale,omitempty"`
	// RegionFailover arms region-loss failover (requires Heartbeat and
	// a topology with regions).
	RegionFailover *RegionFailoverSpec `json:"region_failover,omitempty"`
	// Vantage names the machine the plane observes from: heartbeats from
	// machines partitioned away from it go unheard. Empty: omniscient.
	Vantage string `json:"vantage,omitempty"`
}

// HeartbeatSpec tunes the phi-accrual failure detector.
type HeartbeatSpec struct {
	PeriodMs        float64 `json:"period_ms,omitempty"`
	Jitter          float64 `json:"jitter,omitempty"`
	CheckIntervalMs float64 `json:"check_interval_ms,omitempty"`
	PhiThreshold    float64 `json:"phi_threshold,omitempty"`
	MinSamples      int     `json:"min_samples,omitempty"`
}

// EjectionSpec tunes the outlier ejector.
type EjectionSpec struct {
	IntervalMs         float64 `json:"interval_ms,omitempty"`
	FailureRatio       float64 `json:"failure_ratio,omitempty"`
	LatencyFactor      float64 `json:"latency_factor,omitempty"`
	Quantile           float64 `json:"quantile,omitempty"`
	MinRequests        int     `json:"min_requests,omitempty"`
	MinHealthyFraction float64 `json:"min_healthy_fraction,omitempty"`
	ProbationMs        float64 `json:"probation_ms,omitempty"`
}

// RegionFailoverSpec tunes region-loss failover: when every tracked
// heartbeat from a region has gone silent (crash or partition), the
// plane waits drain_delay_ms for in-flight work to settle, then
// promotes the nearest healthy region of each geo-replicated service.
type RegionFailoverSpec struct {
	CheckIntervalMs float64 `json:"check_interval_ms,omitempty"`
	DrainDelayMs    float64 `json:"drain_delay_ms,omitempty"`
}

// FailoverSpec tunes dead-instance replacement.
type FailoverSpec struct {
	RestartDelayMs float64  `json:"restart_delay_ms,omitempty"`
	Machines       []string `json:"machines,omitempty"`
}

// AutoscaleSpec is one service's reactive scaling law. Exactly one of
// target_utilization and target_queue must be set.
type AutoscaleSpec struct {
	Service           string   `json:"service"`
	Min               int      `json:"min,omitempty"`
	Max               int      `json:"max"`
	TargetUtilization float64  `json:"target_utilization,omitempty"`
	TargetQueue       float64  `json:"target_queue,omitempty"`
	IntervalMs        float64  `json:"interval_ms,omitempty"`
	UpCooldownMs      float64  `json:"up_cooldown_ms,omitempty"`
	DownCooldownMs    float64  `json:"down_cooldown_ms,omitempty"`
	Tolerance         float64  `json:"tolerance,omitempty"`
	Cores             int      `json:"cores,omitempty"`
	Machines          []string `json:"machines,omitempty"`
}
