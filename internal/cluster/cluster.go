// Package cluster models the physical substrate: machines with a fixed
// number of cores, DVFS frequency ranges with discrete steps, and auxiliary
// resource pools (disks, NICs) with bounded concurrency.
//
// Core occupancy is tracked by the service runtime; what cluster provides
// is capacity accounting (how many cores a microservice instance owns) and
// the frequency those cores currently run at, which scales processing
// times.
package cluster

import (
	"fmt"
	"math"
)

// FreqSpec describes a machine's DVFS range in MHz with a discrete step —
// e.g. the paper's Xeon E5-2660 v3: 1200–2600 MHz (Table II).
type FreqSpec struct {
	MinMHz  float64
	MaxMHz  float64
	StepMHz float64
}

// DefaultFreqSpec matches the validation platform of the paper.
var DefaultFreqSpec = FreqSpec{MinMHz: 1200, MaxMHz: 2600, StepMHz: 100}

// Clamp snaps mhz into the spec's range and onto its step grid.
func (f FreqSpec) Clamp(mhz float64) float64 {
	if f.MaxMHz <= 0 {
		return mhz // no DVFS modelled
	}
	if mhz < f.MinMHz {
		mhz = f.MinMHz
	}
	if mhz > f.MaxMHz {
		mhz = f.MaxMHz
	}
	if f.StepMHz > 0 {
		steps := math.Round((mhz - f.MinMHz) / f.StepMHz)
		mhz = f.MinMHz + steps*f.StepMHz
		if mhz > f.MaxMHz {
			mhz = f.MaxMHz
		}
	}
	return mhz
}

// Pool is an auxiliary resource with bounded concurrency (e.g. 2 disk
// spindles, a shared NIC DMA engine).
type Pool struct {
	Name     string
	Capacity int
	busy     int
}

// TryAcquire takes one unit if available, reporting success.
func (p *Pool) TryAcquire() bool {
	if p.busy >= p.Capacity {
		return false
	}
	p.busy++
	return true
}

// Release returns one unit. Releasing an idle pool panics: it indicates an
// accounting bug.
func (p *Pool) Release() {
	if p.busy <= 0 {
		panic(fmt.Sprintf("cluster: release of idle pool %q", p.Name))
	}
	p.busy--
}

// InUse reports current occupancy.
func (p *Pool) InUse() int { return p.busy }

// Machine is one server: a core budget, a DVFS spec, and auxiliary pools.
type Machine struct {
	Name     string
	NumCores int
	Freq     FreqSpec
	// ID numbers the machine densely in registration order (Cluster.Add),
	// so per-machine and per-machine-pair state is a slice index away.
	ID int
	// Region is the index of the machine's home region in the installed
	// geography (Geography.Regions), -1 when it has none. The simulation
	// sets it when it installs a geography.
	Region int

	freeCores int
	allocs    []*Allocation
	pools     map[string]*Pool
}

// NewMachine creates a machine with the given core count and DVFS spec.
func NewMachine(name string, cores int, freq FreqSpec) *Machine {
	if cores < 1 {
		panic("cluster: machine needs at least one core")
	}
	return &Machine{
		Name:      name,
		NumCores:  cores,
		Freq:      freq,
		Region:    -1,
		freeCores: cores,
		pools:     make(map[string]*Pool),
	}
}

// AddPool registers an auxiliary pool (e.g. "disk" with capacity 2).
func (m *Machine) AddPool(name string, capacity int) *Pool {
	if capacity < 1 {
		panic("cluster: pool needs positive capacity")
	}
	p := &Pool{Name: name, Capacity: capacity}
	m.pools[name] = p
	return p
}

// Pool looks up an auxiliary pool by name.
func (m *Machine) Pool(name string) (*Pool, bool) {
	p, ok := m.pools[name]
	return p, ok
}

// FreeCores reports unallocated cores.
func (m *Machine) FreeCores() int { return m.freeCores }

// Allocate pins n cores to the named owner (a microservice instance). The
// allocation starts at the machine's maximum frequency.
func (m *Machine) Allocate(owner string, n int) (*Allocation, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: allocation needs at least one core")
	}
	if n > m.freeCores {
		return nil, fmt.Errorf("cluster: machine %s has %d free cores, %s wants %d",
			m.Name, m.freeCores, owner, n)
	}
	m.freeCores -= n
	a := &Allocation{Machine: m, Owner: owner, Cores: n, freqMHz: m.nominalMHz()}
	m.allocs = append(m.allocs, a)
	return a, nil
}

func (m *Machine) nominalMHz() float64 {
	if m.Freq.MaxMHz > 0 {
		return m.Freq.MaxMHz
	}
	return 0
}

// Release returns an allocation's cores to the machine — the inverse of
// Allocate, used when a control plane retires a replica or replaces a
// dead one. Releasing an allocation the machine does not hold panics: it
// indicates a double free.
func (m *Machine) Release(a *Allocation) {
	for i, held := range m.allocs {
		if held == a {
			m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
			m.freeCores += a.Cores
			return
		}
	}
	panic(fmt.Sprintf("cluster: release of unknown allocation %q on %s", a.Owner, m.Name))
}

// Allocations reports all live allocations on the machine.
func (m *Machine) Allocations() []*Allocation { return m.allocs }

// Allocation is a set of cores pinned to one microservice instance, with a
// shared DVFS setting.
type Allocation struct {
	Machine *Machine
	Owner   string
	Cores   int

	freqMHz float64
}

// Freq reports the allocation's current frequency in MHz (0: no DVFS
// modelled, meaning processing times are used unscaled).
func (a *Allocation) Freq() float64 { return a.freqMHz }

// SetFreq changes the allocation's frequency, clamped and snapped to the
// machine's DVFS grid. It reports the frequency actually applied.
func (a *Allocation) SetFreq(mhz float64) float64 {
	a.freqMHz = a.Machine.Freq.Clamp(mhz)
	return a.freqMHz
}

// StepUp raises frequency by n DVFS steps; StepDown lowers it. Both report
// the new frequency.
func (a *Allocation) StepUp(n int) float64 {
	return a.SetFreq(a.freqMHz + float64(n)*a.Machine.Freq.StepMHz)
}

// StepDown lowers frequency by n DVFS steps and reports the new frequency.
func (a *Allocation) StepDown(n int) float64 {
	return a.SetFreq(a.freqMHz - float64(n)*a.Machine.Freq.StepMHz)
}

// SpeedFactor reports the multiplier applied to nominal processing times at
// the current frequency: nominal/current (≥1 when underclocked). Machines
// without DVFS report 1.
func (a *Allocation) SpeedFactor() float64 {
	nominal := a.Machine.nominalMHz()
	if nominal <= 0 || a.freqMHz <= 0 {
		return 1
	}
	return nominal / a.freqMHz
}

// Cluster is a named set of machines.
type Cluster struct {
	machines map[string]*Machine
	order    []*Machine // by ID
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{machines: make(map[string]*Machine)}
}

// Add registers a machine and assigns its ID; duplicate names are an error.
func (c *Cluster) Add(m *Machine) error {
	if _, ok := c.machines[m.Name]; ok {
		return fmt.Errorf("cluster: duplicate machine %q", m.Name)
	}
	m.ID = len(c.order)
	c.machines[m.Name] = m
	c.order = append(c.order, m)
	return nil
}

// Machine looks up a machine by name.
func (c *Cluster) Machine(name string) (*Machine, bool) {
	m, ok := c.machines[name]
	return m, ok
}

// ID resolves a machine name to its ID; -1 for an unknown name.
func (c *Cluster) ID(name string) int {
	if m, ok := c.machines[name]; ok {
		return m.ID
	}
	return -1
}

// IDs resolves machine names to IDs, as ID does.
func (c *Cluster) IDs(names []string) []int {
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = c.ID(name)
	}
	return ids
}

// Machines returns all machines in registration (ID) order.
func (c *Cluster) Machines() []*Machine { return append([]*Machine(nil), c.order...) }

// Size reports the number of machines.
func (c *Cluster) Size() int { return len(c.order) }
