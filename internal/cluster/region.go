package cluster

import (
	"fmt"
	"sort"

	"uqsim/internal/des"
)

// Region is one geographic site: a named group of machines connected by
// a cheap intra-region fabric. Unlike failure domains (which may
// overlap), regions partition the cluster — every machine belongs to at
// most one region, and geography-aware routing treats that assignment
// as the machine's home site.
type Region struct {
	Name     string
	Machines []string
}

// WANLink models the cost of one inter-region path: a fixed one-way
// propagation delay plus a per-KB serialization cost. Intra-region
// traffic never pays a WANLink.
type WANLink struct {
	Latency des.Time // one-way propagation delay
	PerKB   des.Time // additional delay per KB of request payload
}

func (l WANLink) validate() error {
	if l.Latency < 0 {
		return fmt.Errorf("negative WAN latency %v", l.Latency)
	}
	if l.PerKB < 0 {
		return fmt.Errorf("negative WAN per-KB cost %v", l.PerKB)
	}
	return nil
}

// delay is the total WAN cost of moving sizeKB across the link.
func (l WANLink) delay(sizeKB float64) des.Time {
	d := l.Latency
	if l.PerKB > 0 && sizeKB > 0 {
		d += des.Time(float64(l.PerKB) * sizeKB)
	}
	return d
}

// Geography is the region layer of the topology hierarchy: a disjoint
// machine→region assignment plus a WAN latency/bandwidth model between
// regions. A Geography is immutable once built except for the WAN
// parameters, which may be set before the simulation starts.
//
// Regions are numbered by declaration order. The name-keyed methods are
// the configuration API; the index-keyed ones (LinkAt, DelayAt, NearestAt)
// serve the per-hop path without hashing a name.
type Geography struct {
	regions []Region
	index   map[string]int // region name → declaration order
	def     WANLink
	links   []wanOverride // region×region, row-major; symmetric
	nearest [][]int       // NearestAt orders by region, built on demand; reset on WAN edits
}

// wanOverride is one region pair's SetLink, if it has one.
type wanOverride struct {
	WANLink
	set bool
}

// NewGeography validates and indexes a region set. known reports
// whether a machine name exists in the cluster; pass nil to skip that
// check. Errors: duplicate region name, empty region, unknown machine,
// or a machine assigned to two regions.
func NewGeography(regions []Region, known func(string) bool) (*Geography, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("geography needs at least one region")
	}
	g := &Geography{
		index: make(map[string]int, len(regions)),
		links: make([]wanOverride, len(regions)*len(regions)),
	}
	home := make(map[string]int) // machine name → region index
	for i, r := range regions {
		if r.Name == "" {
			return nil, fmt.Errorf("region %d has no name", i)
		}
		if _, dup := g.index[r.Name]; dup {
			return nil, fmt.Errorf("duplicate region %q", r.Name)
		}
		if len(r.Machines) == 0 {
			return nil, fmt.Errorf("region %q has no machines", r.Name)
		}
		for _, m := range r.Machines {
			if known != nil && !known(m) {
				return nil, fmt.Errorf("region %q: unknown machine %q", r.Name, m)
			}
			if prev, taken := home[m]; taken {
				if prev == i {
					return nil, fmt.Errorf("region %q lists machine %q twice", r.Name, m)
				}
				return nil, fmt.Errorf("machine %q assigned to two regions: %q and %q", m, regions[prev].Name, r.Name)
			}
			home[m] = i
		}
		g.index[r.Name] = i
		cp := Region{Name: r.Name, Machines: append([]string(nil), r.Machines...)}
		g.regions = append(g.regions, cp)
	}
	return g, nil
}

// Regions returns the regions in declaration order.
func (g *Geography) Regions() []Region { return g.regions }

// HasRegion reports whether name is a declared region.
func (g *Geography) HasRegion(name string) bool {
	_, ok := g.index[name]
	return ok
}

// RegionIndex reports a region's index in Regions: -1 for an undeclared
// name, and on a nil Geography.
func (g *Geography) RegionIndex(name string) int {
	if g != nil {
		if i, ok := g.index[name]; ok {
			return i
		}
	}
	return -1
}

// Names lists the region names in declaration order.
func (g *Geography) Names() []string {
	names := make([]string, len(g.regions))
	for i, r := range g.regions {
		names[i] = r.Name
	}
	return names
}

// SetDefaultWAN sets the WAN model used between every region pair that
// has no explicit link override.
func (g *Geography) SetDefaultWAN(l WANLink) error {
	if err := l.validate(); err != nil {
		return err
	}
	g.def = l
	g.nearest = nil
	return nil
}

// SetLink overrides the WAN model between one region pair. Links are
// symmetric: SetLink(a, b, l) also applies to b→a traffic.
func (g *Geography) SetLink(a, b string, l WANLink) error {
	i, ok := g.index[a]
	if !ok {
		return fmt.Errorf("wan link: unknown region %q", a)
	}
	j, ok := g.index[b]
	if !ok {
		return fmt.Errorf("wan link: unknown region %q", b)
	}
	if i == j {
		return fmt.Errorf("wan link: %q cannot link to itself", a)
	}
	if err := l.validate(); err != nil {
		return err
	}
	n := len(g.regions)
	g.links[i*n+j] = wanOverride{l, true}
	g.links[j*n+i] = wanOverride{l, true}
	g.nearest = nil
	return nil
}

// LinkAt returns the WAN model between regions i and j. Traffic within
// one region, or touching an unassigned endpoint (a negative index),
// costs nothing.
func (g *Geography) LinkAt(i, j int) WANLink {
	if i < 0 || j < 0 || i == j {
		return WANLink{}
	}
	if o := g.links[i*len(g.regions)+j]; o.set {
		return o.WANLink
	}
	return g.def
}

// DelayAt is the WAN cost of moving sizeKB from region i to region j.
func (g *Geography) DelayAt(i, j int, sizeKB float64) des.Time {
	return g.LinkAt(i, j).delay(sizeKB)
}

// Nearest returns every region name ordered by WAN latency from the
// given region, nearest first; from itself leads (latency zero) and
// ties break by declaration order. Nil for an undeclared region.
func (g *Geography) Nearest(from string) []string {
	i, ok := g.index[from]
	if !ok {
		return nil
	}
	order := g.NearestAt(i)
	names := make([]string, len(order))
	for k, r := range order {
		names[k] = g.regions[r].Name
	}
	return names
}

// NearestAt is Nearest by region index. The result is cached until the
// WAN model changes and must not be mutated by the caller.
func (g *Geography) NearestAt(from int) []int {
	if g.nearest == nil {
		g.nearest = make([][]int, len(g.regions))
	}
	if cached := g.nearest[from]; cached != nil {
		return cached
	}
	order := make([]int, len(g.regions))
	for i := range order {
		order[i] = i
	}
	// A stable sort over declaration order breaks latency ties by it.
	sort.SliceStable(order, func(a, b int) bool {
		return g.LinkAt(from, order[a]).Latency < g.LinkAt(from, order[b]).Latency
	})
	g.nearest[from] = order
	return order
}
