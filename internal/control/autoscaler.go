package control

import (
	"math"

	"uqsim/internal/des"
)

// This file is the reactive autoscaler: the HPA-style control law
// desired = ceil(current · observed/target), evaluated on a fixed cadence
// against windowed observations — busy-core-time deltas for the
// utilization law, instantaneous queue depth for the queue law. A
// deadband (Tolerance) around the target suppresses flapping, cooldowns
// suppress oscillation after each action, and the replica count stays
// inside [Min, Max] and the cluster's free cores. Scale-down is gradual
// (one replica per decision) and graceful: the victim leaves the
// load-balancing rotation immediately but its cores are only released
// once in-flight and queued work has drained.

// autoscaleState is one scaled deployment's controller state.
type autoscaleState struct {
	cfg      *AutoscaleConfig
	lastUp   des.Time
	lastDown des.Time
	acted    bool // distinguishes t=0 from a cooldown anchor
}

// evaluateScale is one scaled deployment's periodic decision.
func (p *Plane) evaluateScale(now des.Time, md *managedDeployment) {
	if p.stopped {
		return
	}
	as := md.scale
	ac := as.cfg
	defer p.after(ac.Interval, md.scaleTick)

	// Serving replicas: up, not retired. Ejected instances still burn
	// cores, so they count for capacity even while out of the rotation.
	var serving []*instanceTrack
	cores := 0
	for _, tr := range md.tracks {
		if tr.replaced || md.dep.Retired(tr.in) {
			continue
		}
		// Advance every live cursor so a down instance's window restarts
		// cleanly after recovery.
		busy := tr.in.BusyTime(now)
		delta := busy - tr.prevBusy
		tr.prevBusy = busy
		if tr.in.Down() {
			continue
		}
		serving = append(serving, tr)
		cores += tr.in.Alloc.Cores
		tr.windowBusy = delta
	}
	current := len(serving)
	if current == 0 {
		return // nothing observable; failover's job, not the scaler's
	}
	if p.partitionBlind(md) {
		// A live replica is unreachable from the vantage: its load is
		// invisible, so any decision would be made against a partial
		// view — and a scale-up would double-place capacity that is
		// still serving behind the partition. Freeze until it heals.
		p.stats.ScaleFrozen++
		return
	}

	var observed, target float64
	if ac.TargetUtilization > 0 {
		target = ac.TargetUtilization
		sum := des.Time(0)
		for _, tr := range serving {
			sum += tr.windowBusy
		}
		observed = float64(sum) / (float64(cores) * float64(ac.Interval))
	} else {
		target = ac.TargetQueue
		sum := 0
		for _, tr := range serving {
			sum += tr.in.QueueLen()
		}
		observed = float64(sum) / float64(current)
	}

	switch {
	case observed > target*(1+ac.Tolerance) && current < ac.Max:
		if as.acted && now-as.lastUp < ac.UpCooldown {
			return
		}
		desired := int(math.Ceil(float64(current) * observed / target))
		if desired > ac.Max {
			desired = ac.Max
		}
		added := false
		for i := current; i < desired; i++ {
			if !p.scaleUp(md) {
				p.stats.ScaleBlocked++
				break
			}
			added = true
		}
		if added {
			as.lastUp, as.acted = now, true
		}
	case observed < target*(1-ac.Tolerance) && current > ac.Min:
		if as.acted && (now-as.lastDown < ac.DownCooldown || now-as.lastUp < ac.DownCooldown) {
			return
		}
		p.scaleDown(now, md, serving)
		as.lastDown, as.acted = now, true
	}
}

// scaleUp adds one replica, reporting success.
func (p *Plane) scaleUp(md *managedDeployment) bool {
	ac := md.scale.cfg
	cores := ac.Cores
	if cores <= 0 {
		cores = md.dep.Instances[0].Alloc.Cores
	}
	machine, ok := p.placeReplica(ac.Machines, cores, "")
	if !ok {
		return false
	}
	in, err := p.s.AddReplica(md.dep.Name, machine, cores)
	if err != nil {
		return false
	}
	p.stats.ScaleUps++
	p.registerInstance(md, in)
	return true
}

// scaleDown retires the newest serving replica (LIFO keeps the original
// placement stable) and releases its cores once drained.
func (p *Plane) scaleDown(now des.Time, md *managedDeployment, serving []*instanceTrack) {
	victim := serving[len(serving)-1]
	md.dep.Retire(victim.in)
	p.stats.ScaleDowns++
	p.drainAndRelease(now, md, victim)
}

// drainAndRelease polls a retired replica until its queue and in-flight
// work hit zero, then returns its cores to the machine.
func (p *Plane) drainAndRelease(now des.Time, md *managedDeployment, tr *instanceTrack) {
	if p.stopped {
		return // keep the cores allocated; the run is over
	}
	if tr.in.InFlight() == 0 && tr.in.QueueLen() == 0 {
		if err := p.s.RemoveReplica(md.dep.Name, tr.in); err == nil {
			return
		}
	}
	p.after(md.scale.cfg.Interval/4+1, func(t des.Time) { p.drainAndRelease(t, md, tr) })
}
