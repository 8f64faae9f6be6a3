// Package netfault models correlated network failures layered on the
// cluster topology: failure domains (racks or power domains whose machines
// crash and recover together), time-varying network partitions (symmetric
// splits and asymmetric one-way cuts of the machine-pair reachability
// matrix), and gray links (per-link probabilistic message drop and
// duplication on cross-machine RPC edges).
//
// The package holds pure state — who can currently reach whom, and how
// lossy each directed link is. Scheduling (when a partition opens or
// heals) stays with the fault plan in internal/fault, and the
// consequences (failing an attempt unreachable, cloning a duplicate
// message) stay with the dispatch layer in internal/sim; both consult
// this state at event time, so the model is deterministic under any
// conforming engine.
package netfault

import "fmt"

// Domain is a failure domain: a named group of machines that fail
// together (a rack behind one switch, a power feed). Correlated fault
// events address the group by name and expand to its machines in order.
type Domain struct {
	Name     string
	Machines []string
}

// ValidateDomains checks a domain list: nonempty unique names, at least
// one machine each, every machine known to the cluster, and no machine
// repeated within a domain. A machine may belong to several domains (a
// rack and a power feed overlap).
func ValidateDomains(domains []Domain, known func(string) bool) error {
	names := make(map[string]bool, len(domains))
	for _, d := range domains {
		if d.Name == "" {
			return fmt.Errorf("netfault: domain with empty name")
		}
		if names[d.Name] {
			return fmt.Errorf("netfault: duplicate domain %q", d.Name)
		}
		names[d.Name] = true
		if len(d.Machines) == 0 {
			return fmt.Errorf("netfault: domain %q has no machines", d.Name)
		}
		seen := make(map[string]bool, len(d.Machines))
		for _, m := range d.Machines {
			if seen[m] {
				return fmt.Errorf("netfault: domain %q lists machine %q twice", d.Name, m)
			}
			seen[m] = true
			if known != nil && !known(m) {
				return fmt.Errorf("netfault: domain %q references unknown machine %q", d.Name, m)
			}
		}
	}
	return nil
}

// Link is a gray-link quality spec: per-message drop and duplication
// probabilities on one directed machine pair.
type Link struct {
	Drop float64
	Dup  float64
}

// Validate checks probability ranges.
func (l Link) Validate() error {
	if l.Drop < 0 || l.Drop > 1 {
		return fmt.Errorf("netfault: link drop %v outside [0,1]", l.Drop)
	}
	if l.Dup < 0 || l.Dup > 1 {
		return fmt.Errorf("netfault: link dup %v outside [0,1]", l.Dup)
	}
	return nil
}

// Pairs is a dense table over directed machine pairs, indexed by machine
// ID (cluster.Machine.ID): one row per source, grown on first write, so a
// lookup is two slice indexes and never hashes.
type Pairs[T any] struct{ rows [][]T }

// At returns the entry for src→dst (the zero value if never written).
func (t *Pairs[T]) At(src, dst int) T {
	if src < len(t.rows) && dst < len(t.rows[src]) {
		return t.rows[src][dst]
	}
	var zero T
	return zero
}

// Ref returns the entry for src→dst for writing, growing the table.
func (t *Pairs[T]) Ref(src, dst int) *T {
	if src >= len(t.rows) {
		t.rows = append(t.rows, make([][]T, src+1-len(t.rows))...)
	}
	if row := t.rows[src]; dst >= len(row) {
		t.rows[src] = append(row, make([]T, dst+1-len(row))...)
	}
	return &t.rows[src][dst]
}

// linkSlot is one directed pair's gray-link spec, if it has one.
type linkSlot struct {
	Link
	set bool
}

// State is the time-varying network fault state consulted at the
// dispatch boundary. Machines are addressed by ID (cluster.Machine.ID).
// The zero value is not usable; construct with New.
type State struct {
	// cuts counts, per directed machine pair, how many open partitions
	// sever it — counting (rather than a set) lets overlapping
	// partitions heal independently.
	cuts Pairs[int]
	open int // open partition events (Start minus Heal)

	links       Pairs[linkSlot]
	nLinks      int
	defaultLink Link
	hasDefault  bool

	unreachable uint64
	drops       uint64
	dups        uint64
}

// New returns a fully-connected, loss-free network state.
func New() *State { return &State{} }

// Reachable reports whether a message from src can currently reach dst.
// A machine always reaches itself.
func (st *State) Reachable(src, dst int) bool {
	return src == dst || st.cuts.At(src, dst) == 0
}

// StartPartition severs connectivity between the two machine groups:
// a→b for every a in groupA, b in groupB, and — unless oneWay — the
// reverse direction too. Overlapping partitions stack; each must be
// healed with a matching HealPartition.
func (st *State) StartPartition(groupA, groupB []int, oneWay bool) {
	st.open++
	st.eachPair(groupA, groupB, oneWay, func(a, b int) { *st.cuts.Ref(a, b)++ })
}

// HealPartition reverses a StartPartition with identical arguments.
// Healing a partition that was never started panics: it indicates a
// fault-plan accounting bug, never a recoverable condition.
func (st *State) HealPartition(groupA, groupB []int, oneWay bool) {
	st.open--
	if st.open < 0 {
		panic("netfault: heal without a matching partition")
	}
	st.eachPair(groupA, groupB, oneWay, func(a, b int) {
		n := st.cuts.Ref(a, b)
		if *n == 0 {
			panic(fmt.Sprintf("netfault: heal of uncut pair %d→%d", a, b))
		}
		*n--
	})
}

func (st *State) eachPair(groupA, groupB []int, oneWay bool, fn func(a, b int)) {
	for _, a := range groupA {
		for _, b := range groupB {
			if a == b {
				continue
			}
			fn(a, b)
			if !oneWay {
				fn(b, a)
			}
		}
	}
}

// SetLink installs a gray-link spec on the directed src→dst pair.
// Negative src and dst install the default spec applied to every
// cross-machine pair without a specific one.
func (st *State) SetLink(src, dst int, l Link) {
	if src < 0 && dst < 0 {
		st.defaultLink, st.hasDefault = l, true
		return
	}
	slot := st.links.Ref(src, dst)
	if !slot.set {
		st.nLinks++
	}
	*slot = linkSlot{l, true}
}

// ClearLink removes a gray-link spec installed by SetLink.
func (st *State) ClearLink(src, dst int) {
	if src < 0 && dst < 0 {
		st.defaultLink, st.hasDefault = Link{}, false
		return
	}
	if slot := st.links.Ref(src, dst); slot.set {
		*slot = linkSlot{}
		st.nLinks--
	}
}

// LinkFor reports the gray-link spec in force on src→dst, if any.
func (st *State) LinkFor(src, dst int) (Link, bool) {
	if slot := st.links.At(src, dst); slot.set {
		return slot.Link, true
	}
	if st.hasDefault && src != dst {
		return st.defaultLink, true
	}
	return Link{}, false
}

// Lossy reports whether any gray-link spec is installed — the dispatch
// layer's cheap gate before per-message RNG draws.
func (st *State) Lossy() bool { return st.hasDefault || st.nLinks > 0 }

// CountUnreachable records one attempt failed fast on a severed pair.
func (st *State) CountUnreachable() { st.unreachable++ }

// CountDrop records one message lost to a gray link.
func (st *State) CountDrop() { st.drops++ }

// CountDup records one message duplicated by a gray link.
func (st *State) CountDup() { st.dups++ }

// Unreachable reports attempts failed fast on severed pairs. The read
// accessors are nil-safe — a simulation that never installed a network
// fault has a nil State and reports zeros — so monitors and reports can
// consume Sim.Net unconditionally.
func (st *State) Unreachable() uint64 {
	if st == nil {
		return 0
	}
	return st.unreachable
}

// LinkDrops reports messages lost to gray links.
func (st *State) LinkDrops() uint64 {
	if st == nil {
		return 0
	}
	return st.drops
}

// LinkDups reports messages duplicated by gray links.
func (st *State) LinkDups() uint64 {
	if st == nil {
		return 0
	}
	return st.dups
}
