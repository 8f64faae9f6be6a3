package sim

import (
	"fmt"
	"slices"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/job"
	"uqsim/internal/netfault"
	"uqsim/internal/rng"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// netFaults is the network-fault feature. Nil until a domain, a region or
// a fault event needs it.
type netFaults struct {
	net *netfault.State // partitions and gray links; nil: a perfect fabric
	// domains lists the declared failure domains (the first own of them),
	// then the geography's regions, which double as failure domains.
	domains []netfault.Domain
	own     int
	// crashed counts the crash causes holding each machine down (a region
	// crash and a rack crash may overlap); it is up while its count is 0.
	crashed map[string]int
	linkRNG netfault.Pairs[*rng.Source]
	// loadScale multiplies the open-loop arrival rate once a load step is
	// installed (0 before); Run scales the client pattern that runs by it.
	loadScale float64
}

// faultState returns the network-fault feature, creating it on first use.
func (s *Sim) faultState() *netFaults {
	if s.faults == nil {
		s.faults = &netFaults{crashed: make(map[string]int)}
	}
	return s.faults
}

// netState returns the partition and gray-link model, creating it on first
// use.
func (s *Sim) netState() *netfault.State {
	f := s.faultState()
	if f.net == nil {
		f.net = netfault.New()
	}
	return f.net
}

// Net exposes the network fault state; nil when no network fault has
// been installed (a perfect fabric). Monitors feed their unreachable and
// link-loss series from it.
func (s *Sim) Net() *netfault.State {
	if s.faults == nil {
		return nil
	}
	return s.faults.net
}

// Reachable reports whether a message from machine src currently reaches
// machine dst under the network fault model. With no network faults
// installed everything is reachable. Control planes consult this for
// their own vantage-restricted view of the cluster.
func (s *Sim) Reachable(src, dst *cluster.Machine) bool {
	n := s.Net()
	return n == nil || n.Reachable(src.ID, dst.ID)
}

// SetDomains declares the cluster's failure domains (racks, power
// feeds). Correlated fault events (CrashDomain, RecoverDomain) address
// machines through them, and monitors export per-domain up gauges.
func (s *Sim) SetDomains(domains []netfault.Domain) error {
	if err := netfault.ValidateDomains(domains, func(m string) bool {
		_, ok := s.cluster.Machine(m)
		return ok
	}); err != nil {
		return err
	}
	if s.faults == nil && len(domains) == 0 {
		return nil // nothing declared: the feature stays absent
	}
	return s.faultState().declare(domains, false)
}

// declare puts failure domains on the one list: the cluster's own
// (SetDomains, replacing those declared before) ahead of the geography's
// regions (SetGeography). No name may be both.
func (f *netFaults) declare(doms []netfault.Domain, regions bool) error {
	own, regs := f.domains[:f.own], f.domains[f.own:]
	other, noun, otherNoun := regs, "domain", "region"
	if regions {
		other, noun, otherNoun = own, "region", "failure domain"
	}
	for _, d := range doms {
		if slices.ContainsFunc(other, func(o netfault.Domain) bool { return o.Name == d.Name }) {
			return fmt.Errorf("sim: %s %q collides with a declared %s", noun, d.Name, otherNoun)
		}
	}
	if regions {
		regs = doms
	} else {
		own = doms
	}
	f.domains, f.own = append(slices.Clip(own), regs...), len(own)
	return nil
}

// Domains reports the declared failure domains, regions last.
func (s *Sim) Domains() []netfault.Domain {
	if s.faults == nil {
		return nil
	}
	return s.faults.domains
}

// domain resolves a declared failure domain (or region) by name.
func (s *Sim) domain(name string) (netfault.Domain, bool) {
	for _, d := range s.Domains() {
		if d.Name == name {
			return d, true
		}
	}
	return netfault.Domain{}, false
}

// DomainUp reports the fraction of the named domain's machines not
// currently crashed by the fault plan — the per-domain up gauge. Unknown
// domains report 0.
func (s *Sim) DomainUp(name string) float64 {
	d, ok := s.domain(name)
	if !ok || len(d.Machines) == 0 {
		return 0
	}
	up := 0
	for _, m := range d.Machines {
		if s.faults.crashed[m] == 0 {
			up++
		}
	}
	return float64(up) / float64(len(d.Machines))
}

// InstallFaults schedules a fault plan's events on the engine. Call after
// all deployments (and EnableNetwork, if used) exist and before Run;
// references to unknown machines, services, or instances fail eagerly. The
// plan is deterministic: the same plan under the same seed always yields
// the same run.
func (s *Sim) InstallFaults(plan fault.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, ev := range plan.Events {
		if err := s.checkFaultRefs(ev); err != nil {
			return fmt.Errorf("sim: fault event %d (%s) %w", i, ev.Kind, err)
		}
		switch ev.Kind.Target() {
		case fault.OnDomain:
			// Correlated burst: the domain event expands at install time
			// into per-machine events staggered in declaration order.
			d, _ := s.domain(ev.Domain)
			kind := fault.CrashMachine
			if ev.Kind == fault.RecoverDomain {
				kind = fault.RecoverMachine
			}
			for mi, machine := range d.Machines {
				mev := fault.Event{At: ev.At + des.Time(mi)*ev.Stagger, Kind: kind, Machine: machine}
				s.eng.Post(mev.At, func(t des.Time) { s.applyFault(t, mev) })
			}
			continue
		case fault.OnGroups, fault.OnLink:
			s.netState() // exists before the run: dispatch consults it
		case fault.OnClient:
			// Run checks that the client that runs is open-loop and scales it.
			if f := s.faultState(); f.loadScale == 0 {
				f.loadScale = 1
			}
		}
		ev := ev
		s.eng.Post(ev.At, func(t des.Time) { s.applyFault(t, ev) })
	}
	return nil
}

// checkFaultRefs resolves every name an event references: machines in the
// cluster, a deployed service whose deployment has the event's instance,
// a declared domain or region.
func (s *Sim) checkFaultRefs(ev fault.Event) error {
	for _, r := range ev.Refs() {
		var ok bool
		switch r.Noun {
		case fault.RefMachine:
			_, ok = s.cluster.Machine(r.Name)
		case fault.RefService:
			var dep *Deployment
			if dep, ok = s.deployments[r.Name]; ok && ev.Instance >= len(dep.Instances) {
				return fmt.Errorf("targets instance %d of %d", ev.Instance, len(dep.Instances))
			}
		case fault.RefDomain:
			_, ok = s.domain(r.Name)
		}
		if !ok {
			return fmt.Errorf("references unknown %s %q", r.Noun, r.Name)
		}
	}
	return nil
}

// applyFault executes one fault event at virtual time now and, when the
// kind is windowed, schedules its undo at Until. Every path that changes
// fluid-visible state (capacity, frequency, reachability, link loss,
// offered load) ends in fluidResolve so the background tier re-solves its
// equilibrium at the fault boundary itself rather than coasting on a
// stale solution until the next epoch edge; undos that change such state
// do the same at the heal boundary.
func (s *Sim) applyFault(now des.Time, ev fault.Event) {
	defer s.fluidResolve(now)
	if undo := s.doFault(now, ev); undo != nil && ev.Until > now {
		s.eng.Post(ev.Until, undo)
	}
}

// doFault applies one fault event's effect and returns the undo that heals
// it, nil for kinds that do not heal at Until.
func (s *Sim) doFault(now des.Time, ev fault.Event) (undo func(des.Time)) {
	switch ev.Kind {
	case fault.KillInstance, fault.RestartInstance:
		dep := s.deployments[ev.Service]
		for i, in := range dep.Instances {
			switch {
			case ev.Instance >= 0 && i != ev.Instance: // not targeted
			case ev.Kind == fault.KillInstance:
				s.killInstance(now, dep, in)
			case in.Down():
				in.Restart(now)
			}
		}
		dep.refreshHealthy()
	case fault.CrashMachine, fault.RecoverMachine:
		// Overlapping correlated faults stack as independent causes
		// (netFaults.crashed): a machine goes down with its first cause and
		// comes back with its last.
		f, crash := s.faultState(), ev.Kind == fault.CrashMachine
		if crash {
			f.crashed[ev.Machine]++
		} else if f.crashed[ev.Machine] > 0 {
			f.crashed[ev.Machine]--
		}
		if n := f.crashed[ev.Machine]; crash && n > 1 || !crash && n > 0 {
			return nil // the machine was already down, or still is
		}
		// Deterministic deployment order matters: kill order decides the
		// order drops propagate and retries get scheduled.
		for _, dep := range s.deps {
			for _, in := range dep.Instances {
				switch {
				case in.Alloc.Machine.Name != ev.Machine:
				case crash:
					s.killInstance(now, dep, in)
				case in.Down():
					in.Restart(now)
				}
			}
			dep.refreshHealthy()
		}
		if np := s.netprocOn(ev.Machine); np != nil && crash {
			for _, j := range np.Kill(now) {
				s.handleNetDrop(now, j)
			}
		} else if np != nil {
			np.Restart(now)
		}
	case fault.DegradeFreq:
		m, _ := s.cluster.Machine(ev.Machine)
		allocs := m.Allocations()
		old := make([]float64, len(allocs))
		for i, a := range allocs {
			old[i] = a.Freq()
			a.SetFreq(ev.FreqMHz)
		}
		return func(t des.Time) {
			for i, a := range allocs {
				a.SetFreq(old[i])
			}
			s.fluidResolve(t)
		}
	case fault.EdgeLatency:
		dep := s.deployments[ev.Service]
		dep.extra = ev.Extra
		// The fluid tier does not model edge latency: nothing to re-solve.
		return func(des.Time) { dep.extra = 0 }
	case fault.PartitionStart:
		a, b := s.cluster.IDs(ev.GroupA), s.cluster.IDs(ev.GroupB)
		s.netState().StartPartition(a, b, ev.OneWay)
		return func(t des.Time) {
			s.faults.net.HealPartition(a, b, ev.OneWay)
			s.fluidResolve(t)
		}
	case fault.SetLink:
		src, dst := s.cluster.ID(ev.Src), s.cluster.ID(ev.Dst) // "": the default link
		s.netState().SetLink(src, dst, netfault.Link{Drop: ev.Drop, Dup: ev.Dup})
		return func(t des.Time) {
			s.faults.net.ClearLink(src, dst)
			s.fluidResolve(t)
		}
	case fault.LoadStep:
		s.faults.loadScale = ev.Factor
		// Overlapping steps are last-writer-wins; healing restores the
		// nominal rate, not the previous step's.
		return func(t des.Time) {
			s.faults.loadScale = 1
			s.fluidResolve(t)
		}
	}
	return nil
}

// loadPattern is the client's arrival pattern as the run drives it, scaled
// live by the fault plan's load steps when it has any. A load step needs an
// open-loop client (a closed loop has no target rate to scale); the check
// is made against the client that runs, whatever SetClient installed last.
func (s *Sim) loadPattern() (workload.Pattern, error) {
	pat := s.clientCfg.Pattern
	if s.faults == nil || s.faults.loadScale == 0 {
		return pat, nil
	}
	if s.clientCfg.ClosedUsers > 0 || pat == nil {
		return nil, fmt.Errorf("sim: the fault plan's %s needs an open-loop client", fault.LoadStep)
	}
	return &scaledPattern{base: pat, scale: &s.faults.loadScale}, nil
}

// scaledPattern multiplies a base arrival pattern by a live scale factor:
// a load step's (the open-loop generator consults RateAt per interarrival
// gap and so observes scale changes immediately), or the hybrid tier's
// sample rate, which thins the scaled pattern in turn.
type scaledPattern struct {
	base  workload.Pattern
	scale *float64
}

func (p *scaledPattern) RateAt(t des.Time) float64 { return p.base.RateAt(t) * *p.scale }

// netprocOn is the named machine's interrupt service; nil without one.
func (s *Sim) netprocOn(machine string) *service.Instance {
	if m, ok := s.cluster.Machine(machine); ok && m.ID < len(s.netproc) {
		return s.netproc[m.ID]
	}
	return nil
}

// killInstance takes one deployed instance down and propagates every lost
// job upstream. No-op when already down.
func (s *Sim) killInstance(now des.Time, dep *Deployment, in *service.Instance) {
	if in.Down() {
		return
	}
	lost := in.Kill(now)
	dep.refreshHealthy()
	for _, j := range lost {
		s.handleJobDrop(now, j)
	}
}

// lostOnLink applies the network fault model to a hop from src to in's
// machine, which crosses the fabric. It reports whether the message was
// lost, failing its attempt or request, and on a duplicating gray link
// sends a duplicate ahead of it.
func (s *Sim) lostOnLink(now des.Time, j *job.Job, in *service.Instance, src *cluster.Machine) bool {
	n, dest := s.faults.net, in.Alloc.Machine
	if n == nil {
		return false
	}
	lost := !n.Reachable(src.ID, dest.ID)
	if lost {
		n.CountUnreachable()
	} else if n.Lossy() {
		if l, ok := n.LinkFor(src.ID, dest.ID); ok {
			// Each directed gray link draws from its own stream, derived on
			// first use: (seed, src, dst) decide it, not link order.
			r := s.faults.linkRNG.Ref(src.ID, dest.ID)
			if *r == nil {
				*r = s.split.Stream("netfault", "link", src.Name, dest.Name)
			}
			if lost = l.Drop > 0 && (*r).Float64() < l.Drop; lost {
				n.CountDrop()
			} else if l.Dup > 0 && (*r).Float64() < l.Dup {
				n.CountDup()
				s.deliverDuplicate(now, j, in, src)
			}
		}
	}
	if lost {
		s.failAttemptOrRequest(now, j, job.OutcomeUnreachable)
	}
	return lost
}

// deliverDuplicate admits a gray-link duplicate of j: a fresh clone
// sharing the request, marked canceled up front so the receiver burns a
// queue slot — and, without dequeue-time vetting, real service time — on
// it while handleJobDone's abandoned-attempt path discards the result.
// A duplicate the receiver refuses (down, full) simply evaporates; the
// original attempt's fate is tracked separately.
func (s *Sim) deliverDuplicate(now des.Time, j *job.Job, in *service.Instance, src *cluster.Machine) {
	dup := s.fac.Clone(j)
	dup.NodeID = j.NodeID
	dup.PathID = j.PathID
	dup.Outcome = job.OutcomeCanceled
	dup.Server = in
	if s.admitVia(now, dup, in, src) != service.Admitted {
		s.releaseJob(dup)
	}
}

func (f *netFaults) report(r *Report) {
	if f.net != nil {
		r.LinkDrops = f.net.LinkDrops()
		r.LinkDups = f.net.LinkDups()
	}
}
