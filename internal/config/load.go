package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"uqsim/internal/cluster"
	"uqsim/internal/control"
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/fault"
	"uqsim/internal/graph"
	"uqsim/internal/hybrid"
	"uqsim/internal/netfault"
	"uqsim/internal/queueing"
	"uqsim/internal/service"
	"uqsim/internal/sim"
	"uqsim/internal/workload"
)

// Setup is a fully assembled simulation plus its run window.
type Setup struct {
	Sim      *sim.Sim
	Warmup   des.Time
	Duration des.Time
	// Plane is the attached self-healing control plane; nil unless the
	// config directory had a control.json.
	Plane *control.Plane
	// Machines, Graph, Client and Faults are the decoded documents the
	// simulation was assembled from (Faults nil without one), for callers
	// that need the configuration's shape rather than the built Sim.
	Machines *MachinesFile
	Graph    *GraphFile
	Client   *ClientFile
	Faults   *FaultsFile
}

// Run executes the configured window.
func (s *Setup) Run() (*sim.Report, error) { return s.Sim.Run(s.Warmup, s.Duration) }

// DecodeStrict unmarshals one JSON document named name (a config document,
// or another file a command reads beside one, such as a chaos corpus
// entry's meta.json), rejecting unknown JSON keys so typos fail loudly
// instead of being ignored. When the unknown key is an edit distance away
// from a real field anywhere in the document's schema, the error suggests
// it.
func DecodeStrict(name string, data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if got, ok := unknownFieldOf(err); ok {
			if name == "machines.json" && got == "engine" {
				// The section that selected the parallel engine: an old
				// document gets the reason, not a did-you-mean.
				return fmt.Errorf(`config: machines.json: "engine" was removed (the parallel engine is gone); scale out with uqsim farm`)
			}
			return unknownName(name, "", "field", got, jsonFieldNames(v))
		}
		return fmt.Errorf("config: %s: %w", name, err)
	}
	if dec.More() {
		return fmt.Errorf("config: %s: trailing data after JSON document", name)
	}
	return nil
}

// assemble builds a simulation from the decoded documents; ff is nil
// without a faults document.
func assemble(mf *MachinesFile, sf *ServicesFile, gf *GraphFile, pf *PathsFile, cf *ClientFile, ff *FaultsFile) (*Setup, error) {
	if cf.DurationS <= 0 {
		return nil, fmt.Errorf("config: client.json needs a positive duration_s")
	}
	s := sim.New(sim.Options{Seed: cf.Seed})

	// Machines.
	if len(mf.Machines) == 0 {
		return nil, fmt.Errorf("config: machines.json declares no machines")
	}
	seen := make(map[string]bool, len(mf.Machines))
	for _, ms := range mf.Machines {
		if ms.Name == "" {
			return nil, fmt.Errorf("config: machines.json: machine without a name")
		}
		if seen[ms.Name] {
			return nil, fmt.Errorf("config: machines.json: duplicate machine %q", ms.Name)
		}
		seen[ms.Name] = true
		freq := cluster.FreqSpec{}
		if ms.Freq != nil {
			freq = cluster.FreqSpec{MinMHz: ms.Freq.MinMHz, MaxMHz: ms.Freq.MaxMHz, StepMHz: ms.Freq.StepMHz}
		}
		if ms.Cores <= 0 {
			return nil, fmt.Errorf("config: machine %q needs positive cores", ms.Name)
		}
		m := s.AddMachine(ms.Name, ms.Cores, freq)
		for _, p := range ms.Pools {
			if p.Capacity <= 0 {
				return nil, fmt.Errorf("config: machine %q pool %q needs positive capacity", ms.Name, p.Name)
			}
			m.AddPool(p.Name, p.Capacity)
		}
	}

	// Failure domains (after machines so membership is checkable).
	var regionNames []string
	if mf.Topology != nil {
		machineNames := make([]string, 0, len(mf.Machines))
		for _, ms := range mf.Machines {
			machineNames = append(machineNames, ms.Name)
		}
		domains := make([]netfault.Domain, 0, len(mf.Topology.Domains))
		for i, d := range mf.Topology.Domains {
			for j, name := range d.Machines {
				if !seen[name] {
					return nil, unknownName("machines.json", fmt.Sprintf("topology.domains[%d].machines[%d]", i, j), "machine", name, machineNames)
				}
			}
			domains = append(domains, netfault.Domain{Name: d.Name, Machines: d.Machines})
		}
		if err := s.SetDomains(domains); err != nil {
			return nil, fmt.Errorf("config: machines.json topology: %w", err)
		}

		// Regions: the geographic layer above racks. Each region lists
		// machines directly and/or pulls in whole racks by domain name.
		if len(mf.Topology.Regions) > 0 {
			domainNames := make([]string, 0, len(mf.Topology.Domains))
			for _, d := range mf.Topology.Domains {
				domainNames = append(domainNames, d.Name)
			}
			regions := make([]cluster.Region, 0, len(mf.Topology.Regions))
			for i, rs := range mf.Topology.Regions {
				members := append([]string(nil), rs.Machines...)
				for j, name := range rs.Machines {
					if !seen[name] {
						return nil, unknownName("machines.json", fmt.Sprintf("topology.regions[%d].machines[%d]", i, j), "machine", name, machineNames)
					}
				}
				for j, rack := range rs.Racks {
					found := false
					for _, d := range mf.Topology.Domains {
						if d.Name == rack {
							members = append(members, d.Machines...)
							found = true
							break
						}
					}
					if !found {
						return nil, unknownName("machines.json", fmt.Sprintf("topology.regions[%d].racks[%d]", i, j), "domain", rack, domainNames)
					}
				}
				regions = append(regions, cluster.Region{Name: rs.Name, Machines: members})
				regionNames = append(regionNames, rs.Name)
			}
			geo, err := s.SetGeography(regions)
			if err != nil {
				return nil, fmt.Errorf("config: machines.json topology.regions: %w", err)
			}
			if w := mf.Topology.WAN; w != nil {
				if err := geo.SetDefaultWAN(cluster.WANLink{
					Latency: des.FromSeconds(w.LatencyMs / 1000),
					PerKB:   des.FromNanos(w.PerKBUs * 1000),
				}); err != nil {
					return nil, fmt.Errorf("config: machines.json topology.wan: %w", err)
				}
				for li, l := range w.Links {
					if !geo.HasRegion(l.A) {
						return nil, unknownName("machines.json", fmt.Sprintf("topology.wan.links[%d].a", li), "region", l.A, regionNames)
					}
					if !geo.HasRegion(l.B) {
						return nil, unknownName("machines.json", fmt.Sprintf("topology.wan.links[%d].b", li), "region", l.B, regionNames)
					}
					if err := geo.SetLink(l.A, l.B, cluster.WANLink{
						Latency: des.FromSeconds(l.LatencyMs / 1000),
						PerKB:   des.FromNanos(l.PerKBUs * 1000),
					}); err != nil {
						return nil, fmt.Errorf("config: machines.json topology.wan.links[%d]: %w", li, err)
					}
				}
			}
		} else if mf.Topology.WAN != nil {
			return nil, fmt.Errorf("config: machines.json: topology.wan requires topology.regions")
		}
	}

	// Services → blueprints.
	blueprints := make(map[string]*service.Blueprint, len(sf.Services))
	for _, svc := range sf.Services {
		bp, err := buildBlueprint(&svc)
		if err != nil {
			return nil, err
		}
		blueprints[bp.Name] = bp
	}

	// Deployments.
	for i, d := range gf.Deployments {
		bp, ok := blueprints[d.Service]
		if !ok {
			declared := make([]string, 0, len(blueprints))
			for name := range blueprints {
				declared = append(declared, name)
			}
			return nil, unknownName("graph.json", fmt.Sprintf("deployments[%d].service", i), "service", d.Service, declared)
		}
		var lb sim.Policy
		switch strings.ToLower(d.LB) {
		case "", "round_robin", "roundrobin":
			lb = sim.RoundRobin
		case "random":
			lb = sim.Random
		case "least_loaded", "leastloaded":
			lb = sim.LeastLoaded
		default:
			return nil, fmt.Errorf("config: unknown lb policy %q", d.LB)
		}
		placements := make([]sim.Placement, 0, len(d.Instances))
		for _, inst := range d.Instances {
			placements = append(placements, sim.Placement{Machine: inst.Machine, Cores: inst.Cores})
		}
		if _, err := s.Deploy(bp, lb, placements...); err != nil {
			return nil, err
		}
		if d.Replication != nil {
			if len(regionNames) == 0 {
				return nil, fmt.Errorf("config: graph.json deployments[%d]: replication requires topology.regions in machines.json", i)
			}
			for j, rg := range d.Replication.Regions {
				if !s.Geography().HasRegion(rg) {
					return nil, unknownName("graph.json", fmt.Sprintf("deployments[%d].replication.regions[%d]", i, j), "region", rg, regionNames)
				}
			}
			if d.Replication.LagMs < 0 {
				return nil, fmt.Errorf("config: graph.json deployments[%d]: replication lag_ms must be non-negative", i)
			}
			if err := s.SetReplication(d.Service, sim.ReplicationSpec{
				Lag:     des.FromSeconds(d.Replication.LagMs / 1000),
				Regions: d.Replication.Regions,
			}); err != nil {
				return nil, fmt.Errorf("config: graph.json deployments[%d]: %w", i, err)
			}
		}
	}

	// Network (after machines + deployments so core accounting is clear).
	if mf.Network != nil {
		var perMsg dist.Sampler
		if mf.Network.PerMsg != nil {
			var err error
			perMsg, err = mf.Network.PerMsg.Build()
			if err != nil {
				return nil, fmt.Errorf("config: network per_msg: %w", err)
			}
		}
		if err := s.EnableNetwork(sim.NetworkConfig{
			CoresPerMachine: mf.Network.CoresPerMachine,
			PerMsg:          perMsg,
			PerKB:           mf.Network.PerKBUs * 1000,
			ClientTx:        mf.Network.ClientTx,
		}); err != nil {
			return nil, err
		}
	}

	// Topology.
	topo := &graph.Topology{}
	for _, p := range pf.Pools {
		topo.Pools = append(topo.Pools, graph.ConnPool{Name: p.Name, Capacity: p.Capacity})
	}
	for _, ts := range pf.Trees {
		tree := graph.Tree{Name: ts.Name, Weight: ts.Weight, Root: ts.Root}
		for _, ns := range ts.Nodes {
			inst := -1
			if ns.Instance != nil {
				inst = *ns.Instance
			}
			tree.Nodes = append(tree.Nodes, graph.Node{
				ID:          ns.ID,
				Service:     ns.Service,
				ServicePath: ns.Path,
				Instance:    inst,
				Children:    ns.Children,
				AcquireConn: ns.Acquire,
				ReleaseConn: ns.Release,
			})
		}
		topo.Trees = append(topo.Trees, tree)
	}
	if err := s.SetTopology(topo); err != nil {
		return nil, err
	}
	treeIdx := make(map[string]int, len(topo.Trees))
	treeNames := make([]string, len(topo.Trees))
	for i := range topo.Trees {
		treeIdx[topo.Trees[i].Name] = i
		treeNames[i] = topo.Trees[i].Name
	}

	// Client.
	cc := sim.ClientConfig{
		Connections: cf.Connections,
		Timeout:     des.FromSeconds(cf.TimeoutMs / 1000),
		MaxRetries:  cf.MaxRetries,
	}
	if cf.TimeoutMs < 0 {
		return nil, fmt.Errorf("config: timeout_ms must be non-negative")
	}
	if cf.MaxRetries > 0 && cf.TimeoutMs <= 0 {
		return nil, fmt.Errorf("config: max_retries requires timeout_ms")
	}
	switch strings.ToLower(cf.Process) {
	case "", "poisson":
		cc.Proc = workload.Poisson
	case "uniform", "deterministic":
		cc.Proc = workload.Uniform
	default:
		return nil, fmt.Errorf("config: unknown arrival process %q", cf.Process)
	}
	if cf.Diurnal != nil {
		d := workload.Diurnal{
			Base:      cf.Diurnal.Base,
			Amplitude: cf.Diurnal.Amplitude,
			Period:    des.FromSeconds(cf.Diurnal.PeriodS),
			Floor:     cf.Diurnal.Floor,
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("config: client.json diurnal: %w", err)
		}
		cc.Pattern = d
	} else if cf.QPS != 0 {
		r := workload.ConstantRate(cf.QPS)
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("config: client.json qps: %w", err)
		}
		cc.Pattern = r
	}
	if cf.Sessions != nil {
		if cf.ClosedUsers > 0 {
			return nil, fmt.Errorf("config: client.json: sessions and closed_users are mutually exclusive")
		}
		if cc.Pattern != nil {
			return nil, fmt.Errorf("config: client.json: sessions and qps/diurnal are mutually exclusive")
		}
		sc, err := buildSessions(cf.Sessions, treeIdx, treeNames)
		if err != nil {
			return nil, err
		}
		cc.Sessions = sc
	} else if cf.ClosedUsers > 0 {
		cc.ClosedUsers = cf.ClosedUsers
		if cf.Think != nil {
			th, err := cf.Think.Build()
			if err != nil {
				return nil, fmt.Errorf("config: client think: %w", err)
			}
			cc.Think = th
		}
	} else if cc.Pattern == nil {
		return nil, fmt.Errorf("config: client.json needs qps, diurnal, closed_users, or sessions")
	}
	if cf.Budget != nil && cf.BudgetMs != 0 {
		return nil, fmt.Errorf("config: client.json: budget and budget_ms are mutually exclusive")
	}
	if cf.BudgetMs < 0 {
		return nil, fmt.Errorf("config: client.json: budget_ms must be non-negative")
	}
	if cf.Budget != nil {
		b, err := cf.Budget.Build()
		if err != nil {
			return nil, fmt.Errorf("config: client budget: %w", err)
		}
		cc.Budget = b
	} else if cf.BudgetMs > 0 {
		cc.Budget = dist.NewDeterministic(float64(des.FromSeconds(cf.BudgetMs / 1000)))
	}
	if cf.Region != "" {
		if geo := s.Geography(); geo == nil || !geo.HasRegion(cf.Region) {
			return nil, unknownName("client.json", "region", "region", cf.Region, regionNames)
		}
		cc.Region = cf.Region
	}
	if cf.SizeKB != nil {
		sz, err := cf.SizeKB.Build()
		if err != nil {
			return nil, fmt.Errorf("config: client size_kb: %w", err)
		}
		// size_kb is dimensionless KB, but dist.Spec treats values as
		// microseconds; undo that scale.
		cc.SizeKB = dist.NewScaled(sz, 1.0/1000)
	}
	s.SetClient(cc)

	// Fidelity.
	switch strings.ToLower(cf.Fidelity) {
	case "", "full":
		if cf.SampleRate != 0 {
			return nil, fmt.Errorf("config: client.json: sample_rate requires fidelity \"hybrid\"")
		}
		if cf.HybridEpochMs != 0 {
			return nil, fmt.Errorf("config: client.json: hybrid_epoch_ms requires fidelity \"hybrid\"")
		}
	case "hybrid":
		rate := cf.SampleRate
		if rate == 0 {
			rate = 0.01
		}
		if cf.HybridEpochMs < 0 {
			return nil, fmt.Errorf("config: client.json: hybrid_epoch_ms must be >= 0")
		}
		hc := hybrid.Config{SampleRate: rate, Epoch: des.FromSeconds(cf.HybridEpochMs / 1000)}
		if err := hc.Validate(); err != nil {
			return nil, fmt.Errorf("config: client.json: %w", err)
		}
		s.SetHybrid(hc)
	default:
		return nil, unknownName("client.json", "fidelity", "fidelity mode", cf.Fidelity, []string{"full", "hybrid"})
	}

	// Faults (last: policies and plans reference deployments + topology).
	if ff != nil {
		if err := applyFaults(s, ff); err != nil {
			return nil, err
		}
	}

	return &Setup{
		Sim:      s,
		Warmup:   des.FromSeconds(cf.WarmupS),
		Duration: des.FromSeconds(cf.DurationS),
		Machines: mf, Graph: gf, Client: cf, Faults: ff,
	}, nil
}

// buildSessions resolves client.json's sessions block into a workload
// SessionConfig: journey steps name path.json trees (with did-you-mean on
// unknown names), times are seconds, and the assembled config is validated
// before it reaches the simulator.
func buildSessions(spec *SessionsSpec, treeIdx map[string]int, treeNames []string) (*workload.SessionConfig, error) {
	sc := &workload.SessionConfig{
		Users:   spec.Users,
		PopTick: des.FromSeconds(spec.PopTickMs / 1000),
	}
	for _, js := range spec.Journeys {
		w := js.Weight
		if w == 0 {
			w = 1
		}
		j := workload.Journey{Name: js.Name, Weight: w}
		for si, ss := range js.Steps {
			idx, ok := treeIdx[ss.Tree]
			if !ok {
				return nil, unknownName("client.json",
					fmt.Sprintf("sessions journey %q step %d", js.Name, si), "tree", ss.Tree, treeNames)
			}
			step := workload.SessionStep{Tree: idx}
			if ss.Think != nil {
				th, err := ss.Think.Build()
				if err != nil {
					return nil, fmt.Errorf("config: sessions journey %q step %d think: %w", js.Name, si, err)
				}
				step.Think = th
			}
			j.Steps = append(j.Steps, step)
		}
		sc.Journeys = append(sc.Journeys, j)
	}
	for _, ps := range spec.Phases {
		sc.Phases = append(sc.Phases, workload.PopPhase{
			At:    des.FromSeconds(ps.AtS),
			Users: ps.Users,
			Ramp:  des.FromSeconds(ps.RampS),
		})
	}
	for _, fs := range spec.FlashCrowds {
		sc.Crowds = append(sc.Crowds, workload.FlashCrowd{
			At:       des.FromSeconds(fs.AtS),
			Extra:    fs.Extra,
			RampUp:   des.FromSeconds(fs.RampUpS),
			Hold:     des.FromSeconds(fs.HoldS),
			RampDown: des.FromSeconds(fs.RampDownS),
		})
	}
	if spec.OnOff != nil {
		sc.OnOff = &workload.OnOff{
			MeanOn:  des.FromSeconds(spec.OnOff.MeanOnS),
			MeanOff: des.FromSeconds(spec.OnOff.MeanOffS),
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("config: client.json: %w", err)
	}
	return sc, nil
}

// fromMs converts a config document's milliseconds to virtual time.
func fromMs(v float64) des.Time { return des.FromSeconds(v / 1000) }

// FaultPlan converts faults.json's schedule into a fault plan: the events
// section in order, then network.partitions, then network.links. Kind
// names parse case-insensitively; kinds that act on machine groups or
// links belong in the network section. Names are not resolved here:
// installing the plan does that.
func FaultPlan(ff *FaultsFile) (fault.Plan, error) {
	var plan fault.Plan
	for i, es := range ff.Events {
		key := fmt.Sprintf("events[%d].kind", i)
		kind, ok := fault.ParseKind(es.Kind)
		if !ok {
			return plan, unknownName("faults.json", key, "kind", es.Kind, fault.KindNames())
		}
		switch kind.Target() {
		case fault.OnGroups, fault.OnLink:
			return plan, fmt.Errorf("config: faults.json: %s: %s belongs in the network section (network.partitions, network.links)", key, kind)
		}
		inst := -1
		if es.Instance != nil {
			inst = *es.Instance
		}
		plan.Events = append(plan.Events, fault.Event{
			At:       des.FromSeconds(es.AtS),
			Kind:     kind,
			Machine:  es.Machine,
			Service:  es.Service,
			Instance: inst,
			FreqMHz:  es.FreqMHz,
			Extra:    fromMs(es.ExtraMs),
			Until:    des.FromSeconds(es.UntilS),
			Domain:   es.Domain,
			Stagger:  fromMs(es.StaggerMs),
			Factor:   es.Factor,
		})
	}
	if nf := ff.Network; nf != nil {
		for _, ps := range nf.Partitions {
			plan.Events = append(plan.Events, fault.Event{
				At:     des.FromSeconds(ps.AtS),
				Kind:   fault.PartitionStart,
				GroupA: ps.GroupA,
				GroupB: ps.GroupB,
				OneWay: ps.OneWay,
				Until:  des.FromSeconds(ps.UntilS),
			})
		}
		for _, ls := range nf.Links {
			plan.Events = append(plan.Events, fault.Event{
				At:    des.FromSeconds(ls.AtS),
				Kind:  fault.SetLink,
				Src:   ls.Src,
				Dst:   ls.Dst,
				Drop:  ls.Drop,
				Dup:   ls.Dup,
				Until: des.FromSeconds(ls.UntilS),
			})
		}
	}
	return plan, nil
}

// faultKey names the faults.json entry plan event i of FaultPlan(ff) came
// from.
func faultKey(ff *FaultsFile, i int) string {
	if i < len(ff.Events) {
		return fmt.Sprintf("events[%d]", i)
	}
	i -= len(ff.Events)
	if i < len(ff.Network.Partitions) {
		return fmt.Sprintf("network.partitions[%d]", i)
	}
	return fmt.Sprintf("network.links[%d]", i-len(ff.Network.Partitions))
}

// applyFaults installs faults.json's policies, shedding bounds, and fault
// plan on an assembled simulation.
func applyFaults(s *sim.Sim, ff *FaultsFile) error {
	var deployed []string
	for _, dep := range s.Deployments() {
		deployed = append(deployed, dep.Name)
	}
	for i, ps := range ff.Policies {
		p := fault.Policy{
			Timeout:       fromMs(ps.TimeoutMs),
			MaxRetries:    ps.MaxRetries,
			BackoffBase:   fromMs(ps.BackoffBaseMs),
			BackoffJitter: ps.BackoffJitter,
		}
		if ps.Breaker != nil {
			p.Breaker = &fault.BreakerSpec{
				ErrorThreshold: ps.Breaker.ErrorThreshold,
				Window:         ps.Breaker.Window,
				Cooldown:       fromMs(ps.Breaker.CooldownMs),
			}
		}
		if ps.Hedge != nil {
			p.Hedge = &fault.HedgeSpec{
				Delay:      fromMs(ps.Hedge.DelayMs),
				Quantile:   ps.Hedge.Quantile,
				MinSamples: ps.Hedge.MinSamples,
				Jitter:     ps.Hedge.Jitter,
			}
		}
		switch {
		case ps.Tree != "":
			if ps.Node == nil {
				return fmt.Errorf("config: faults.json policy %d: tree %q needs a node", i, ps.Tree)
			}
			if err := s.SetNodePolicy(ps.Tree, *ps.Node, p); err != nil {
				return fmt.Errorf("config: faults.json policy %d: %w", i, err)
			}
		case ps.Service != "":
			if ps.Node != nil {
				return fmt.Errorf("config: faults.json policy %d: node %d needs a tree", i, *ps.Node)
			}
			if !slices.Contains(deployed, ps.Service) {
				return unknownName("faults.json", fmt.Sprintf("policies[%d].service", i), "service", ps.Service, deployed)
			}
			if err := s.SetServicePolicy(ps.Service, p); err != nil {
				return fmt.Errorf("config: faults.json policy %d: %w", i, err)
			}
		default:
			return fmt.Errorf("config: faults.json policy %d needs a service or a tree+node", i)
		}
	}
	for i, sh := range ff.Shedding {
		if !slices.Contains(deployed, sh.Service) {
			return unknownName("faults.json", fmt.Sprintf("shedding[%d].service", i), "service", sh.Service, deployed)
		}
		if err := s.SetMaxQueue(sh.Service, sh.MaxQueue); err != nil {
			return fmt.Errorf("config: faults.json shedding %d: %w", i, err)
		}
	}
	for i, qs := range ff.Queues {
		if !slices.Contains(deployed, qs.Service) {
			return unknownName("faults.json", fmt.Sprintf("queues[%d].service", i), "service", qs.Service, deployed)
		}
		var kind fault.QueueKind
		switch strings.ToLower(qs.Kind) {
		case "", "fifo":
			kind = fault.QueueFIFO
		case "codel":
			kind = fault.QueueCoDel
		case "lifo", "adaptive_lifo":
			kind = fault.QueueLIFO
		case "codel_lifo", "codel+lifo":
			kind = fault.QueueCoDelLIFO
		default:
			return fmt.Errorf("config: faults.json: queues[%d].kind: unknown discipline %q (fifo, codel, lifo, codel_lifo)", i, qs.Kind)
		}
		if err := s.SetQueueDiscipline(qs.Service, fault.QueueDiscipline{
			Kind:     kind,
			Target:   fromMs(qs.TargetMs),
			Interval: fromMs(qs.IntervalMs),
		}); err != nil {
			return fmt.Errorf("config: faults.json queues %d: %w", i, err)
		}
	}
	plan, err := FaultPlan(ff)
	if err != nil || plan.Empty() {
		return err
	}
	// Every referenced name gets did-you-mean here; missing names and the
	// instance range are left to InstallFaults.
	valid := map[string][]string{fault.RefService: deployed}
	for _, m := range s.Cluster().Machines() {
		valid[fault.RefMachine] = append(valid[fault.RefMachine], m.Name)
	}
	for _, d := range s.Domains() {
		valid[fault.RefDomain] = append(valid[fault.RefDomain], d.Name)
	}
	for i, ev := range plan.Events {
		for _, r := range ev.Refs() {
			if r.Name != "" && !slices.Contains(valid[r.Noun], r.Name) {
				return unknownName("faults.json", faultKey(ff, i)+"."+r.Field, r.Noun, r.Name, valid[r.Noun])
			}
		}
	}
	if err := s.InstallFaults(plan); err != nil {
		return fmt.Errorf("config: faults.json: %w", err)
	}
	return nil
}

func buildBlueprint(svc *ServiceSpec) (*service.Blueprint, error) {
	if svc.ServiceName == "" {
		return nil, fmt.Errorf("config: service without service_name")
	}
	bp := &service.Blueprint{
		Name:      svc.ServiceName,
		Threads:   svc.Threads,
		CtxSwitch: des.FromNanos(svc.CtxSwitchUs * 1000),
		PathProbs: svc.PathProbs,
	}
	switch strings.ToLower(svc.Model) {
	case "", "simple":
		bp.Model = service.ModelSimple
	case "multi-threaded", "multithreaded", "threaded":
		bp.Model = service.ModelThreaded
	default:
		return nil, fmt.Errorf("config: service %s: unknown model %q", svc.ServiceName, svc.Model)
	}
	for _, st := range svc.Stages {
		spec := service.StageSpec{
			Name:       st.StageName,
			Batching:   st.Batching,
			PerConn:    st.QueueParameter,
			BatchLimit: st.BatchLimit,
			PerKB:      st.PerKBUs * 1000,
			PoolName:   st.Pool,
		}
		switch strings.ToLower(st.QueueType) {
		case "", "single":
			spec.Queue = queueing.KindSingle
		case "epoll":
			spec.Queue = queueing.KindEpoll
		case "socket":
			spec.Queue = queueing.KindSocket
		default:
			return nil, fmt.Errorf("config: service %s stage %s: unknown queue_type %q",
				svc.ServiceName, st.StageName, st.QueueType)
		}
		if st.Base != nil {
			b, err := st.Base.Build()
			if err != nil {
				return nil, fmt.Errorf("config: service %s stage %s base: %w", svc.ServiceName, st.StageName, err)
			}
			spec.Base = b
		}
		if st.PerJob != nil {
			p, err := st.PerJob.Build()
			if err != nil {
				return nil, fmt.Errorf("config: service %s stage %s per_job: %w", svc.ServiceName, st.StageName, err)
			}
			spec.PerJob = p
		}
		bp.Stages = append(bp.Stages, spec)
	}
	for _, p := range svc.Paths {
		bp.Paths = append(bp.Paths, service.PathSpec{Name: p.PathName, Stages: p.Stages})
	}
	if err := bp.Validate(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return bp, nil
}
