package sim

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/netfault"
	"uqsim/internal/service"
)

// geography is the region feature. Nil until SetGeography.
type geography struct {
	layout     *cluster.Geography
	home       int    // the client's home region (-1: none), resolved at Run
	crossHops  uint64 // deliveries that crossed a region boundary
	staleReads uint64 // cross-origin serves of a lagging replica
}

// depRegions is one deployment's share of the geography: its healthy
// instances and a round-robin cursor per region, and its geo-replication.
// A read served outside the request's origin region is stale until the
// serving region has been promoted (promoted[r] >= 0) for at least lag.
type depRegions struct {
	layout      *cluster.Geography
	healthy     [][]*service.Instance
	rr          []int
	lag         des.Time
	replRegions []string // nil: not geo-replicated
	promoted    []des.Time
}

// newDepRegions readies a fresh deployment's per-region state.
func (g *geography) newDepRegions() *depRegions {
	n := len(g.layout.Regions())
	r := &depRegions{layout: g.layout, healthy: make([][]*service.Instance, n), rr: make([]int, n), promoted: make([]des.Time, n)}
	for i := range r.promoted {
		r.promoted[i] = -1 // unpromoted
	}
	return r
}

// refresh splits the deployment's healthy set by home region, in order.
func (r *depRegions) refresh(healthy []*service.Instance) {
	for i := range r.healthy {
		r.healthy[i] = r.healthy[i][:0]
	}
	for _, in := range healthy {
		if i := in.Alloc.Machine.Region; i >= 0 {
			r.healthy[i] = append(r.healthy[i], in)
		}
	}
}

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
		doms = append(doms, netfault.Domain{Name: r.Name, Machines: r.Machines})
	}
	if err := s.faultState().declare(doms, true); err != nil {
		return nil, err
	}
	for i, r := range g.Regions() {
		for _, name := range r.Machines {
			m, _ := s.cluster.Machine(name)
			m.Region = i
		}
	}
	s.geo = &geography{layout: g, home: -1}
	return g, nil
}

// Geography reports the installed region layer (nil without one).
func (s *Sim) Geography() *cluster.Geography {
	if s.geo == nil {
		return nil
	}
	return s.geo.layout
}

// resolveHome finds the client's home region when Run starts.
func (g *geography) resolveHome(region string) error {
	g.home = g.layout.RegionIndex(region)
	if region != "" && g.home < 0 {
		return fmt.Errorf("sim: client region %q is not a declared region (have %q)", region, g.layout.Names())
	}
	return nil
}

func (g *geography) report(r *Report) { r.CrossRegionCalls, r.StaleReads = g.crossHops, g.staleReads }

// sourceRegion is the index of the region a hop originates from: the
// sending machine's home region, or the client's for entry hops (src ==
// nil); -1 for none.
func (s *Sim) sourceRegion(src *cluster.Machine) int {
	if src == nil {
		return s.geo.home
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
	// Unless named, the regions are those hosting a replica, in the order
	// the deployment's instances first reach them.
	layout, hosts := s.geo.layout, make([]bool, len(s.geo.layout.Regions()))
	regions := append([]string(nil), spec.Regions...)
	for _, in := range dep.Instances {
		if r := in.Alloc.Machine.Region; r >= 0 && !hosts[r] {
			hosts[r] = true
			if len(spec.Regions) == 0 {
				regions = append(regions, layout.Regions()[r].Name)
			}
		}
	}
	for _, name := range regions {
		r := layout.RegionIndex(name)
		if r < 0 {
			return fmt.Errorf("sim: %s: replication references unknown region %q", svc, name)
		}
		if !hosts[r] {
			return fmt.Errorf("sim: %s: replication region %q hosts no replica", svc, name)
		}
	}
	if len(regions) < 2 {
		return fmt.Errorf("sim: %s: replication needs replicas in at least two regions", svc)
	}
	dep.regions.lag, dep.regions.replRegions = spec.Lag, regions
	return nil
}

// ReplicaRegions reports the regions the replication spec covers; nil when
// the deployment is not geo-replicated.
func (d *Deployment) ReplicaRegions() []string {
	if d.regions == nil {
		return nil
	}
	return d.regions.replRegions
}

// RegionHealthy reports the healthy instances homed in one region.
func (d *Deployment) RegionHealthy(region string) int {
	if dr, r := d.region(region); r >= 0 {
		return len(dr.healthy[r])
	}
	return 0
}

// region resolves a region name for the deployment's per-region state; -1
// without a geography or for an undeclared region.
func (d *Deployment) region(name string) (*depRegions, int) {
	if d.regions == nil {
		return nil, -1
	}
	return d.regions, d.regions.layout.RegionIndex(name)
}

// Promote marks a region as taking over serving at time now: its
// replicas become fresh once the replication lag has elapsed. Promoting
// an already-promoted region keeps the earlier clock.
func (d *Deployment) Promote(now des.Time, region string) {
	if dr, r := d.region(region); r >= 0 && dr.promoted[r] < 0 {
		dr.promoted[r] = now
	}
}

// PromotedAt reports when a region was promoted, if it was.
func (d *Deployment) PromotedAt(region string) (des.Time, bool) {
	if dr, r := d.region(region); r >= 0 && dr.promoted[r] >= 0 {
		return dr.promoted[r], true
	}
	return 0, false
}

// freshAt reports whether reads served by region i's replicas are up to
// date at time now. Synchronously replicated deployments (lag == 0) and
// non-replicated ones are always fresh.
func (r *depRegions) freshAt(now des.Time, i int) bool {
	if r.replRegions == nil || r.lag == 0 {
		return true
	}
	return i >= 0 && r.promoted[i] >= 0 && now >= r.promoted[i]+r.lag
}

// pickRegional selects an instance by nearest-healthy-region order:
// the source region's own replicas first, then outward by WAN latency.
// Nil when the source has no region or only region-less instances are
// healthy — the caller falls back to the region-blind pick.
func (s *Sim) pickRegional(dep *Deployment, srcRegion int) *service.Instance {
	dr := dep.regions
	if srcRegion < 0 || dr == nil {
		return nil
	}
	for _, r := range s.geo.layout.NearestAt(srcRegion) {
		if hs := dr.healthy[r]; len(hs) > 0 {
			return dep.pickFrom(hs, &dr.rr[r])
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
	srcR, dstR := s.sourceRegion(src), in.Alloc.Machine.Region
	if srcR < 0 || dstR < 0 || srcR == dstR {
		return 0
	}
	g := s.geo
	g.crossHops++
	if dr := dep.regions; dr.replRegions != nil {
		if home := g.home; home >= 0 && home != dstR && !dr.freshAt(now, dstR) {
			g.staleReads++
		}
	}
	return g.layout.DelayAt(srcR, dstR, j.Req.SizeKB)
}
