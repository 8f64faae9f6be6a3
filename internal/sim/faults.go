package sim

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/fault"
	"uqsim/internal/netfault"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

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
			// Needs an open-loop client (closed loops have no target rate
			// to scale), installed before the plan so the pattern can be
			// wrapped here.
			if s.clientCfg.ClosedUsers > 0 || s.clientCfg.Pattern == nil {
				return fmt.Errorf("sim: fault event %d (%s) needs an open-loop client installed first", i, ev.Kind)
			}
			if s.loadScale == nil {
				scale := 1.0
				s.loadScale = &scale
				s.clientCfg.Pattern = &scaledPattern{base: s.clientCfg.Pattern, scale: s.loadScale}
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
	case fault.CrashMachine:
		if s.crashedM == nil {
			s.crashedM = make(map[string]int)
		}
		// Overlapping correlated faults (a region crash and a rack crash
		// both covering this machine) stack as independent causes: each
		// crash increments, each recover decrements, and the machine only
		// comes back when every cause has healed — the partition model's
		// cut counting, one level up.
		s.crashedM[ev.Machine]++
		if s.crashedM[ev.Machine] > 1 {
			return nil // already down; this crash just adds a cause
		}
		// Deterministic deployment order matters: kill order decides the
		// order drops propagate and retries get scheduled.
		for _, dep := range s.deps {
			for _, in := range dep.Instances {
				if in.Alloc.Machine.Name == ev.Machine {
					s.killInstance(now, dep, in)
				}
			}
		}
		if np := s.netprocOn(ev.Machine); np != nil {
			for _, j := range np.Kill(now) {
				s.handleNetDrop(now, j)
			}
		}
	case fault.RecoverMachine:
		if n := s.crashedM[ev.Machine]; n > 1 {
			s.crashedM[ev.Machine] = n - 1
			return nil // another crash cause still holds the machine down
		}
		delete(s.crashedM, ev.Machine)
		for _, dep := range s.deps {
			for _, in := range dep.Instances {
				if in.Alloc.Machine.Name == ev.Machine && in.Down() {
					in.Restart(now)
				}
			}
			dep.refreshHealthy()
		}
		if np := s.netprocOn(ev.Machine); np != nil {
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
			s.net.HealPartition(a, b, ev.OneWay)
			s.fluidResolve(t)
		}
	case fault.SetLink:
		src, dst := s.cluster.ID(ev.Src), s.cluster.ID(ev.Dst) // "": the default link
		s.netState().SetLink(src, dst, netfault.Link{Drop: ev.Drop, Dup: ev.Dup})
		return func(t des.Time) {
			s.net.ClearLink(src, dst)
			s.fluidResolve(t)
		}
	case fault.LoadStep:
		*s.loadScale = ev.Factor
		// Overlapping steps are last-writer-wins; healing restores the
		// nominal rate, not the previous step's.
		return func(t des.Time) {
			*s.loadScale = 1
			s.fluidResolve(t)
		}
	}
	return nil
}

// scaledPattern multiplies a base arrival pattern by a live scale factor —
// the LoadStep fault's hook into the open-loop generator, which consults
// RateAt per interarrival gap and so observes scale changes immediately.
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
