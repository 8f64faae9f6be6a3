package sim

import (
	"fmt"
	"slices"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/netfault"
	"uqsim/internal/service"
)

// SetGeography installs the region layer of the topology: a disjoint
// machine→region assignment returned as a *cluster.Geography whose WAN
// model (SetDefaultWAN, SetLink) may then be configured before the run.
// With a geography installed, every dispatch prefers the nearest
// healthy region of the target deployment and cross-region hops pay the
// WAN delay. Each region is also registered as a failure domain, so
// domain crash and recovery events and DomainUp gauges address
// regions by name. Must be called before any Deploy.
func (s *Sim) SetGeography(regions []cluster.Region) (*cluster.Geography, error) {
	if s.geo != nil {
		return nil, fmt.Errorf("sim: geography already set")
	}
	if len(s.deps) > 0 {
		return nil, fmt.Errorf("sim: set the geography before deploying services")
	}
	g, err := cluster.NewGeography(regions, func(m string) bool {
		_, ok := s.cluster.Machine(m)
		return ok
	})
	if err != nil {
		return nil, err
	}
	doms := make([]netfault.Domain, 0, len(regions))
	for _, r := range g.Regions() {
		if _, exists := s.domain(r.Name); exists {
			return nil, fmt.Errorf("sim: region %q collides with a declared failure domain", r.Name)
		}
		doms = append(doms, netfault.Domain{Name: r.Name, Machines: r.Machines})
	}
	for i, r := range g.Regions() {
		for _, name := range r.Machines {
			m, _ := s.cluster.Machine(name)
			m.Region = i
		}
	}
	s.geo = g
	s.geoDomains = doms
	return g, nil
}

// Geography reports the installed region layer (nil without one).
func (s *Sim) Geography() *cluster.Geography { return s.geo }

// sourceRegion is the index of the region a hop originates from: the
// sending machine's home region, or the client's for entry hops (src ==
// nil); -1 for none.
func (s *Sim) sourceRegion(src *cluster.Machine) int {
	if src == nil {
		return s.clientRegion
	}
	return src.Region
}

// ReplicationSpec configures geo-replication for one deployment.
type ReplicationSpec struct {
	// Lag is the replication delay: after a region is promoted, its
	// replicas serve stale reads for cross-origin traffic until Lag has
	// elapsed. Zero models synchronous replication (never stale).
	Lag des.Time
	// Regions lists the regions that must host at least one replica.
	// Empty: every region that hosts a replica of the deployment.
	Regions []string
}

// SetReplication declares a deployed service geo-replicated: its
// replicas form per-region sets, reads served outside the request's
// origin region count as stale until the serving region has been
// promoted (Deployment.Promote) for at least the replication lag, and
// the control plane's region failover promotes the nearest healthy
// region when the origin is lost. Call after Deploy.
func (s *Sim) SetReplication(svc string, spec ReplicationSpec) error {
	if s.geo == nil {
		return fmt.Errorf("sim: replication for %s needs a geography", svc)
	}
	dep, ok := s.deployments[svc]
	if !ok {
		return fmt.Errorf("sim: replication for undeployed service %q", svc)
	}
	if spec.Lag < 0 {
		return fmt.Errorf("sim: %s: negative replication lag %v", svc, spec.Lag)
	}
	regions := append([]string(nil), spec.Regions...)
	if len(regions) == 0 {
		seen := make([]bool, len(s.geo.Regions()))
		for _, r := range dep.instRegion {
			if r >= 0 && !seen[r] {
				seen[r] = true
				regions = append(regions, s.geo.Regions()[r].Name)
			}
		}
	}
	for _, name := range regions {
		r := s.geo.RegionIndex(name)
		if r < 0 {
			return fmt.Errorf("sim: %s: replication references unknown region %q", svc, name)
		}
		if !slices.Contains(dep.instRegion, r) {
			return fmt.Errorf("sim: %s: replication region %q hosts no replica", svc, name)
		}
	}
	if len(regions) < 2 {
		return fmt.Errorf("sim: %s: replication needs replicas in at least two regions", svc)
	}
	dep.replicated = true
	dep.lag = spec.Lag
	dep.replRegions = regions
	return nil
}

// Replicated reports whether the deployment is geo-replicated.
func (d *Deployment) Replicated() bool { return d.replicated }

// ReplicaRegions reports the regions the replication spec covers.
func (d *Deployment) ReplicaRegions() []string { return d.replRegions }

// RegionHealthy reports the healthy instances homed in one region.
func (d *Deployment) RegionHealthy(region string) int {
	if r := d.geo.RegionIndex(region); r >= 0 {
		return len(d.byRegion[r])
	}
	return 0
}

// Promote marks a region as taking over serving at time now: its
// replicas become fresh once the replication lag has elapsed. Promoting
// an already-promoted region keeps the earlier clock.
func (d *Deployment) Promote(now des.Time, region string) {
	if r := d.geo.RegionIndex(region); r >= 0 && d.promoted[r] < 0 {
		d.promoted[r] = now
	}
}

// PromotedAt reports when a region was promoted, if it was.
func (d *Deployment) PromotedAt(region string) (des.Time, bool) {
	if r := d.geo.RegionIndex(region); r >= 0 && d.promoted[r] >= 0 {
		return d.promoted[r], true
	}
	return 0, false
}

// freshAt reports whether reads served by region r's replicas are up to
// date at time now. Synchronously replicated deployments (lag == 0) and
// non-replicated ones are always fresh.
func (d *Deployment) freshAt(now des.Time, r int) bool {
	if !d.replicated || d.lag == 0 {
		return true
	}
	return r >= 0 && d.promoted[r] >= 0 && now >= d.promoted[r]+d.lag
}

// pickRegional selects an instance by nearest-healthy-region order:
// the source region's own replicas first, then outward by WAN latency.
// Nil when the source has no region or only region-less instances are
// healthy — the caller falls back to the region-blind pick.
func (s *Sim) pickRegional(dep *Deployment, srcRegion int) *service.Instance {
	if srcRegion < 0 || dep.byRegion == nil {
		return nil
	}
	for _, r := range s.geo.NearestAt(srcRegion) {
		if hs := dep.byRegion[r]; len(hs) > 0 {
			return dep.pickFrom(hs, &dep.regionRR[r])
		}
	}
	return nil
}

// wanHop accounts the region crossing of one delivery to dep's instance
// in and returns the WAN delay it must pay (zero intra-region or when an
// endpoint has no region). A cross-region serve of a geo-replicated
// deployment outside the request's origin region counts as stale while
// the serving region lags (freshAt).
func (s *Sim) wanHop(now des.Time, j *job.Job, dep *Deployment, in *service.Instance, src *cluster.Machine) des.Time {
	dstR := in.Alloc.Machine.Region
	if dstR < 0 {
		return 0
	}
	srcR := s.sourceRegion(src)
	if srcR < 0 {
		return 0
	}
	if srcR == dstR {
		return 0
	}
	s.crossHops++
	if dep.replicated {
		if home := s.clientRegion; home >= 0 && home != dstR && !dep.freshAt(now, dstR) {
			s.staleReads++
		}
	}
	return s.geo.DelayAt(srcR, dstR, j.Req.SizeKB)
}
