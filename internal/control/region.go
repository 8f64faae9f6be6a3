package control

import (
	"uqsim/internal/des"
)

// This file is the region-failover orchestrator: the control plane's
// answer to losing an entire region. The per-instance phi detector
// already declares each silenced instance dead one by one; this layer
// aggregates those verdicts per region under the installed geography.
// When every tracked instance homed in a region is declared dead the
// region itself is declared lost, in-flight work is given a drain
// grace, and the nearest healthy replica region of each geo-replicated
// deployment is promoted so cross-region reads stop being stale once
// the replication lag has elapsed. Routing itself needs no push: the
// data plane's nearest-healthy-region picker shifts traffic away the
// moment the lost region's replicas leave the rotation, and shifts it
// back when they return — the plane only moves the freshness clock and
// keeps score.

// RegionFailoverConfig tunes region-loss detection and failover.
// Requires a Detector (region loss is inferred from per-instance
// suspicion) and an installed geography (sim.SetGeography).
type RegionFailoverConfig struct {
	// CheckInterval is the region-loss evaluation cadence (default:
	// the detector's check interval).
	CheckInterval des.Time
	// DrainDelay is the grace between declaring a region lost and
	// promoting replacement regions (default 50ms) — time for
	// in-flight work to drain and for detector flapping to settle; a
	// region that heals within the grace is never failed over.
	DrainDelay des.Time
}

func (c *RegionFailoverConfig) withDefaults(det *DetectorConfig) *RegionFailoverConfig {
	out := *c
	if out.CheckInterval <= 0 {
		out.CheckInterval = det.CheckInterval
	}
	if out.DrainDelay <= 0 {
		out.DrainDelay = 50 * des.Millisecond
	}
	return &out
}

// regionLost reports whether the plane currently believes region (an
// index into the geography's regions) is gone: at least one live-tenure
// tracked instance is homed there and every such instance is declared
// dead. Regions hosting nothing the plane manages are never lost — there
// is nothing to fail over.
func (p *Plane) regionLost(region int) bool {
	seen := false
	for _, md := range p.managed {
		for _, tr := range md.tracks {
			if tr.replaced || md.dep.Retired(tr.in) {
				continue
			}
			if tr.in.Alloc.Machine.Region != region {
				continue
			}
			seen = true
			if !tr.dead {
				return false
			}
		}
	}
	return seen
}

// checkRegions is the periodic region-loss evaluation loop. Loss and
// restoration are edge-triggered: a region transitions lost exactly
// once per outage (scheduling one drained failover) and restored
// exactly once per heal.
func (p *Plane) checkRegions(now des.Time) {
	if p.stopped {
		return
	}
	for i := range p.s.Geography().Regions() {
		lost := p.regionLost(i)
		switch {
		case lost && !p.lostRegions[i]:
			p.lostRegions[i] = true
			p.stats.RegionLosses++
			p.after(p.cfg.RegionFailover.DrainDelay, func(t des.Time) { p.promoteAway(t, i) })
		case !lost && p.lostRegions[i]:
			p.lostRegions[i] = false
			p.stats.RegionRestores++
			// Promotions persist — the healed region's replicas rejoin
			// the rotation via the data plane, and regions promoted
			// during the outage stay fresh for the traffic they absorbed.
		}
	}
	p.after(p.cfg.RegionFailover.CheckInterval, p.regionTick)
}

// promoteAway fails the lost region's traffic over: for every managed
// geo-replicated deployment serving from the lost region, the nearest
// replica region (by WAN latency from the lost one) that still has
// healthy replicas is promoted. A region that healed during the drain
// grace is left alone.
func (p *Plane) promoteAway(now des.Time, r int) {
	if p.stopped || !p.lostRegions[r] {
		return
	}
	geo := p.s.Geography()
	lost := geo.Regions()[r].Name
	for _, md := range p.managed {
		dep := md.dep
		if !dep.Replicated() || !regionListed(dep.ReplicaRegions(), lost) {
			continue
		}
		for _, to := range geo.Nearest(lost) {
			if to == lost || !regionListed(dep.ReplicaRegions(), to) || dep.RegionHealthy(to) == 0 {
				continue
			}
			if _, already := dep.PromotedAt(to); !already {
				dep.Promote(now, to)
				p.stats.RegionFailovers++
			}
			break
		}
	}
}

func regionListed(regions []string, name string) bool {
	for _, r := range regions {
		if r == name {
			return true
		}
	}
	return false
}
