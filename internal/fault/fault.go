// Package fault defines µqSim's fault-injection and resilience model: a
// deterministic, seeded schedule of infrastructure faults (machine crashes,
// instance kills, frequency degradation, edge latency) plus per-RPC-edge
// resilience policies (timeouts, exponential-backoff retries, circuit
// breaking). The package is purely descriptive plus small deterministic
// state machines; the sim package interprets plans and enforces policies.
//
// The fault vocabulary mirrors what operators of interactive microservices
// actually rehearse: what happens when a machine dies mid-run, a dependency
// slows down, or a retry storm cascades through the fan-out graph. Related
// simulators (PerfSim's chain-level failures, CloudNativeSim's resilience
// scenarios) treat these as first-class inputs; µqSim does too.
package fault

import (
	"fmt"
	"strings"

	"uqsim/internal/des"
)

// Kind enumerates the injectable fault actions. Each is one row of the
// kinds table, which gives its JSON name, its target and how it heals.
type Kind int

// Fault kinds.
const (
	CrashMachine    Kind = iota // Machine, its instances and its network service go down, losing their jobs
	RecoverMachine              // a crashed machine's instances restart with empty queues
	KillInstance                // an instance of Service (every one, at Instance -1) goes down
	RestartInstance             // a killed instance comes back
	DegradeFreq                 // every allocation on Machine runs at FreqMHz (a thermal event)
	EdgeLatency                 // every RPC delivered into Service takes Extra longer
	CrashDomain                 // every machine of Domain crashes, Stagger apart (a rack loses its switch)
	RecoverDomain               // every machine of Domain recovers, Stagger apart
	PartitionStart              // GroupA and GroupB lose reachability (GroupA→GroupB only, if OneWay)
	SetLink                     // messages on Src→Dst are dropped with odds Drop, duplicated with odds Dup
	LoadStep                    // the open-loop arrival rate is multiplied by Factor (a flash crowd)

	kindEnd // the length of the kinds table
)

// Target is what a fault kind acts on: the Event fields naming it.
type Target int

// Fault targets.
const (
	OnMachine  Target = iota // Machine
	OnInstance               // Service, at Instance (-1: every instance)
	OnDomain                 // Domain: a failure domain or a region
	OnGroups                 // GroupA and GroupB
	OnLink                   // Src→Dst; both empty is the all-pairs default
	OnClient                 // the open-loop client
)

// heal is how a fault kind's effect ends.
type heal int

const (
	healNever      heal = iota // stands; the recovery kinds heal, they are not healed
	healAtUntil                // ends at Until; Until 0 keeps it to the end of the run
	healByRecovery             // ends when the row's recovery kind fires on the target
)

// kinds is the fault vocabulary: the only place a kind's JSON name,
// target and heal are spelled. Names, validation, reference checks and
// heal analysis all read it.
var kinds = [kindEnd]struct {
	name   string
	target Target
	heal   heal
	by     Kind // the recovery kind, for healByRecovery
}{
	CrashMachine:    {"crash_machine", OnMachine, healByRecovery, RecoverMachine},
	RecoverMachine:  {"recover_machine", OnMachine, healNever, 0},
	KillInstance:    {"kill_instance", OnInstance, healByRecovery, RestartInstance},
	RestartInstance: {"restart_instance", OnInstance, healNever, 0},
	DegradeFreq:     {"degrade_freq", OnMachine, healAtUntil, 0},
	EdgeLatency:     {"edge_latency", OnInstance, healAtUntil, 0},
	CrashDomain:     {"crash_domain", OnDomain, healByRecovery, RecoverDomain},
	RecoverDomain:   {"recover_domain", OnDomain, healNever, 0},
	PartitionStart:  {"partition", OnGroups, healAtUntil, 0},
	SetLink:         {"set_link", OnLink, healAtUntil, 0},
	LoadStep:        {"load_step", OnClient, healAtUntil, 0},
}

func (k Kind) valid() bool { return k >= 0 && k < kindEnd }

// String names the kind as it appears in faults.json.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kinds[k].name
}

// ParseKind resolves a faults.json kind name, ignoring case.
func ParseKind(name string) (Kind, bool) {
	for k := range kinds {
		if kinds[k].name == strings.ToLower(name) {
			return Kind(k), true
		}
	}
	return 0, false
}

// KindNames lists every kind's faults.json name in declaration order.
func KindNames() []string {
	names := make([]string, kindEnd)
	for k := range kinds {
		names[k] = kinds[k].name
	}
	return names
}

// Target reports what the kind acts on.
func (k Kind) Target() Target { return kinds[k].target }

// Windowed reports whether the kind's effect ends at its event's Until.
func (k Kind) Windowed() bool { return kinds[k].heal == healAtUntil }

// recovers reports the kind k heals, if k is a recovery kind.
func (k Kind) recovers() (Kind, bool) {
	for f := range kinds {
		if kinds[f].heal == healByRecovery && kinds[f].by == k {
			return Kind(f), true
		}
	}
	return 0, false
}

// Event is one scheduled fault action. Its kind's target says which of
// the name fields it reads; each value field belongs to the kinds noted.
type Event struct {
	At       des.Time // when the fault fires
	Kind     Kind
	Machine  string   // OnMachine target
	Service  string   // OnInstance target
	Instance int      // OnInstance: index in Service's deployment; -1 targets all
	FreqMHz  float64  // DegradeFreq: the degraded frequency
	Extra    des.Time // EdgeLatency: the added per-delivery latency
	// Until ends a windowed fault (Kind.Windowed); 0 means it lasts until
	// the end of the run. Other kinds reject it.
	Until   des.Time
	Domain  string   // OnDomain target
	Stagger des.Time // domain kinds: spacing of the per-machine actions
	GroupA  []string // OnGroups: one side of the partition
	GroupB  []string // OnGroups: the other side
	OneWay  bool     // OnGroups: cut GroupA→GroupB only, an asymmetric partition
	Src     string   // OnLink: the directed pair; both empty is every pair
	Dst     string
	Drop    float64 // SetLink: per-message drop probability
	Dup     float64 // SetLink: per-message duplication probability
	Factor  float64 // LoadStep: arrival-rate multiplier; 2 doubles the offered load
}

// Validate checks an event's internal consistency: its target is named,
// its Until fits how its kind heals, and its kind's values are in range.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fault: event %s at negative time %v", e.Kind, e.At)
	}
	if !e.Kind.valid() {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	for _, r := range e.Refs() {
		if r.Name == "" {
			return fmt.Errorf("fault: %s needs a %s", e.Kind, r.Noun)
		}
	}
	row := kinds[e.Kind]
	switch {
	case row.target == OnGroups && (len(e.GroupA) == 0 || len(e.GroupB) == 0):
		return fmt.Errorf("fault: %s needs machines on both sides", e.Kind)
	case row.target == OnLink && (e.Src == "") != (e.Dst == ""):
		return fmt.Errorf("fault: %s needs both src and dst (or neither, for the default link)", e.Kind)
	case row.target == OnLink && e.Src != "" && e.Src == e.Dst:
		return fmt.Errorf("fault: %s src and dst are both %q", e.Kind, e.Src)
	case e.Until == 0: // lasts to the end of the run, or heals otherwise
	case row.heal == healAtUntil && e.Until <= e.At:
		return fmt.Errorf("fault: %s until %v not after at %v", e.Kind, e.Until, e.At)
	case row.heal == healByRecovery:
		return fmt.Errorf("fault: %s takes no until; a %s event heals it", e.Kind, row.by)
	case row.heal == healNever:
		healed, _ := e.Kind.recovers()
		return fmt.Errorf("fault: %s takes no until; it heals %s when it fires", e.Kind, healed)
	}
	switch e.Kind {
	case DegradeFreq:
		if e.FreqMHz <= 0 {
			return fmt.Errorf("fault: %s needs a positive freq_mhz", e.Kind)
		}
	case EdgeLatency:
		if e.Extra <= 0 {
			return fmt.Errorf("fault: %s needs positive extra latency", e.Kind)
		}
	case KillInstance, RestartInstance:
		if e.Instance < -1 {
			return fmt.Errorf("fault: %s instance %d out of range", e.Kind, e.Instance)
		}
	case CrashDomain, RecoverDomain:
		if e.Stagger < 0 {
			return fmt.Errorf("fault: %s stagger %v negative", e.Kind, e.Stagger)
		}
	case SetLink:
		if e.Drop < 0 || e.Drop > 1 || e.Dup < 0 || e.Dup > 1 {
			return fmt.Errorf("fault: %s drop %v or dup %v outside [0,1]", e.Kind, e.Drop, e.Dup)
		}
		if e.Drop == 0 && e.Dup == 0 {
			return fmt.Errorf("fault: %s with zero drop and dup does nothing", e.Kind)
		}
	case LoadStep:
		if e.Factor <= 0 {
			return fmt.Errorf("fault: %s needs a positive factor", e.Kind)
		}
	}
	return nil
}

// Reference nouns: what a Ref's name must resolve to.
const RefMachine, RefService, RefDomain = "machine", "service", "domain"

// Ref is one name an event references through its kind's target: Noun
// says what it names, Field is the faults.json key holding it.
type Ref struct{ Noun, Field, Name string }

// Refs lists the names the event's target references, in field order. A
// default gray link references none; a service reference also covers
// Instance, which must index the service's deployment.
func (e Event) Refs() []Ref {
	var refs []Ref
	add := func(noun, field, name string) { refs = append(refs, Ref{noun, field, name}) }
	switch e.Kind.Target() {
	case OnMachine:
		add(RefMachine, "machine", e.Machine)
	case OnInstance:
		add(RefService, "service", e.Service)
	case OnDomain:
		add(RefDomain, "domain", e.Domain)
	case OnGroups:
		for j, m := range e.GroupA {
			add(RefMachine, fmt.Sprintf("group_a[%d]", j), m)
		}
		for j, m := range e.GroupB {
			add(RefMachine, fmt.Sprintf("group_b[%d]", j), m)
		}
	case OnLink:
		if e.Src != "" {
			add(RefMachine, "src", e.Src)
		}
		if e.Dst != "" {
			add(RefMachine, "dst", e.Dst)
		}
	}
	return refs
}

// Plan is a deterministic schedule of fault events. The same plan under the
// same simulation seed always produces the same run.
type Plan struct {
	Events []Event
}

// Validate checks every event.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the plan schedules anything.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Healing lists, in plan order, the events at which the plan's faults
// heal: every windowed event (at its Until) and every recovery (at its
// At; a domain recovery's members follow at Stagger spacing). ok is false
// when nothing heals or some fault never does: a windowed event without
// an Until, or a target crashed more often than it is recovered.
func (p *Plan) Healing() (heals []int, ok bool) {
	type target struct {
		kind     Kind // the kind healed by recovery
		ref      Ref
		instance int
	}
	open := make(map[target]int) // faults not yet recovered
	for i, e := range p.Events {
		if !e.Kind.valid() || e.Kind.Windowed() && e.Until == 0 {
			return nil, false
		}
		if e.Kind.Windowed() {
			heals = append(heals, i)
			continue
		}
		t := target{kind: e.Kind, ref: e.Refs()[0]}
		if e.Kind.Target() == OnInstance {
			t.instance = e.Instance
		}
		if healed, recovery := e.Kind.recovers(); recovery {
			t.kind = healed
			open[t]--
			heals = append(heals, i)
		} else {
			open[t]++
		}
	}
	for _, n := range open {
		if n > 0 {
			return nil, false
		}
	}
	return heals, len(heals) > 0
}
