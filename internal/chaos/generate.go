package chaos

import (
	"encoding/json"
	"fmt"

	"uqsim/internal/config"
	"uqsim/internal/fault"
	"uqsim/internal/rng"
)

// Action is the generator's atomic unit: one fault plus everything that
// heals it (a crash and its recovery, a windowed degradation and its
// until_s). Shrinking removes whole actions, so a shrunken scenario never
// contains an orphaned heal or an unhealed crash the original would have
// recovered.
type Action struct {
	// Label names the action for logs ("partition m0|m1", "crash m2").
	Label string `json:"label"`
	// Events, Partitions, and Links are this action's contributions to
	// the materialized FaultsFile.
	Events     []config.FaultEventSpec `json:"events,omitempty"`
	Partitions []config.PartitionSpec  `json:"partitions,omitempty"`
	Links      []config.LinkSpec       `json:"links,omitempty"`
}

// EventCount counts the action's individual fault events.
func (a *Action) EventCount() int {
	return len(a.Events) + len(a.Partitions) + len(a.Links)
}

// Scenario is one candidate fault schedule plus the simulation seed it
// runs under. The pair fully determines the run: replaying (seed, actions)
// reproduces the exact same report fingerprint.
type Scenario struct {
	Seed    uint64   `json:"seed"`
	Actions []Action `json:"actions"`
}

// EventCount counts fault events across all actions — the size metric the
// shrinker minimizes and the acceptance threshold (≤ 8) is measured in.
func (sc *Scenario) EventCount() int {
	n := 0
	for i := range sc.Actions {
		n += sc.Actions[i].EventCount()
	}
	return n
}

// Labels lists the actions' labels in schedule order.
func (sc *Scenario) Labels() []string {
	out := make([]string, len(sc.Actions))
	for i := range sc.Actions {
		out[i] = sc.Actions[i].Label
	}
	return out
}

// Generate draws one random scenario from the world model. All faults are
// self-healing and land inside [0.15, 0.65]·horizon, leaving the last
// third of the run as the recovery window the invariants measure.
func (h *Harness) Generate(src *rng.Source, simSeed uint64) Scenario {
	sc := Scenario{Seed: simSeed}
	n := 1 + src.IntN(h.opts.MaxActions)
	for i := 0; i < n; i++ {
		if a, ok := h.randomAction(src); ok {
			sc.Actions = append(sc.Actions, a)
		}
	}
	return sc
}

// window draws a fault start and end inside the injection window:
// start ∈ [0.15, 0.50]·horizon, duration ∈ [0.05, 0.15]·horizon, so every
// fault heals by 0.65·horizon.
func (h *Harness) window(src *rng.Source) (startS, endS float64) {
	startS = h.horizonS * (0.15 + 0.35*src.Float64())
	endS = startS + h.horizonS*(0.05+0.10*src.Float64())
	return startS, endS
}

// randomAction draws one action kind uniformly from the kinds this world
// supports. Kinds needing absent config (no domains, no DVFS range, a
// single machine) are simply not in the deck.
func (h *Harness) randomAction(src *rng.Source) (Action, bool) {
	type builder func(*rng.Source) Action
	var deck []builder
	if len(h.world.machines) > 0 {
		deck = append(deck, h.crashMachine)
	}
	if len(h.world.services) > 0 {
		deck = append(deck, h.killInstance)
	}
	if len(h.world.freqMachines) > 0 {
		deck = append(deck, h.degradeFreq)
	}
	if len(h.world.services) > 0 {
		deck = append(deck, h.edgeLatency)
	}
	if len(h.world.domains) > 0 {
		deck = append(deck, h.domainBurst)
	}
	if len(h.world.machines) >= 2 {
		deck = append(deck, h.partition, h.grayLink)
	}
	deck = append(deck, h.loadStep)
	if len(deck) == 0 {
		return Action{}, false
	}
	return deck[src.IntN(len(deck))](src), true
}

func (h *Harness) crashMachine(src *rng.Source) Action {
	m := h.world.machines[src.IntN(len(h.world.machines))]
	startS, endS := h.window(src)
	return Action{
		Label: "crash " + m,
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.CrashMachine.String(), Machine: m},
			{AtS: endS, Kind: fault.RecoverMachine.String(), Machine: m},
		},
	}
}

func (h *Harness) killInstance(src *rng.Source) Action {
	svc := h.world.services[src.IntN(len(h.world.services))]
	idx := src.IntN(svc.instances)
	startS, endS := h.window(src)
	return Action{
		Label: fmt.Sprintf("kill %s#%d", svc.name, idx),
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.KillInstance.String(), Service: svc.name, Instance: &idx},
			{AtS: endS, Kind: fault.RestartInstance.String(), Service: svc.name, Instance: ptr(idx)},
		},
	}
}

func (h *Harness) degradeFreq(src *rng.Source) Action {
	fm := h.world.freqMachines[src.IntN(len(h.world.freqMachines))]
	// Bottom quartile of the DVFS range: a degradation worth noticing.
	mhz := fm.min + 0.25*src.Float64()*(fm.max-fm.min)
	startS, endS := h.window(src)
	return Action{
		Label: fmt.Sprintf("degrade %s to %.0fMHz", fm.name, mhz),
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.DegradeFreq.String(), Machine: fm.name, FreqMHz: mhz, UntilS: endS},
		},
	}
}

func (h *Harness) edgeLatency(src *rng.Source) Action {
	svc := h.world.services[src.IntN(len(h.world.services))]
	extra := 1 + 9*src.Float64() // 1–10ms on every RPC into the service
	startS, endS := h.window(src)
	return Action{
		Label: fmt.Sprintf("edge latency %s +%.1fms", svc.name, extra),
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.EdgeLatency.String(), Service: svc.name, ExtraMs: extra, UntilS: endS},
		},
	}
}

func (h *Harness) domainBurst(src *rng.Source) Action {
	d := h.world.domains[src.IntN(len(h.world.domains))]
	stagger := 2 * src.Float64() // 0–2ms between member crashes
	startS, endS := h.window(src)
	return Action{
		Label: "burst " + d,
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.CrashDomain.String(), Domain: d, StaggerMs: stagger},
			{AtS: endS, Kind: fault.RecoverDomain.String(), Domain: d, StaggerMs: stagger},
		},
	}
}

func (h *Harness) partition(src *rng.Source) Action {
	ms := append([]string(nil), h.world.machines...)
	src.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	cut := 1 + src.IntN(len(ms)-1)
	oneWay := src.IntN(4) == 0
	startS, endS := h.window(src)
	label := fault.PartitionStart.String()
	if oneWay {
		label = "one-way partition"
	}
	return Action{
		Label: fmt.Sprintf("%s %v|%v", label, ms[:cut], ms[cut:]),
		Partitions: []config.PartitionSpec{
			{AtS: startS, UntilS: endS, GroupA: ms[:cut], GroupB: ms[cut:], OneWay: oneWay},
		},
	}
}

func (h *Harness) grayLink(src *rng.Source) Action {
	i := src.IntN(len(h.world.machines))
	j := src.IntN(len(h.world.machines) - 1)
	if j >= i {
		j++
	}
	drop := 0.1 + 0.8*src.Float64()
	dup := 0.0
	if src.IntN(4) == 0 {
		dup = 0.2 * src.Float64()
	}
	startS, endS := h.window(src)
	return Action{
		Label: fmt.Sprintf("gray link %s→%s drop=%.2f", h.world.machines[i], h.world.machines[j], drop),
		Links: []config.LinkSpec{
			{AtS: startS, UntilS: endS, Src: h.world.machines[i], Dst: h.world.machines[j], Drop: drop, Dup: dup},
		},
	}
}

func (h *Harness) loadStep(src *rng.Source) Action {
	factor := 1.5 + 2.5*src.Float64()
	startS, endS := h.window(src)
	return Action{
		Label: fmt.Sprintf("load ×%.1f", factor),
		Events: []config.FaultEventSpec{
			{AtS: startS, Kind: fault.LoadStep.String(), Factor: factor, UntilS: endS},
		},
	}
}

func ptr(v int) *int { return &v }

// Materialize merges the scenario's actions into the config directory's
// base faults.json (policies, shedding, and queues are preserved; the
// scenario's events are appended to any baseline events) and returns the
// encoded document plus the parsed form.
func (h *Harness) Materialize(sc Scenario) ([]byte, *config.FaultsFile, error) {
	ff := h.faultsTemplate()
	for i := range sc.Actions {
		a := &sc.Actions[i]
		ff.Events = append(ff.Events, a.Events...)
		if len(a.Partitions) > 0 || len(a.Links) > 0 {
			if ff.Network == nil {
				ff.Network = &config.NetFaultSpec{}
			}
			ff.Network.Partitions = append(ff.Network.Partitions, a.Partitions...)
			ff.Network.Links = append(ff.Network.Links, a.Links...)
		}
	}
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: encoding faults.json: %w", err)
	}
	return data, ff, nil
}

// faultsTemplate deep-copies the base faults file so scenario appends
// never alias the harness's copy.
func (h *Harness) faultsTemplate() *config.FaultsFile {
	ff := &config.FaultsFile{}
	if h.baseFaults != nil {
		ff.Policies = append([]config.EdgePolicySpec(nil), h.baseFaults.Policies...)
		ff.Shedding = append([]config.ShedSpec(nil), h.baseFaults.Shedding...)
		ff.Queues = append([]config.QueueSpec(nil), h.baseFaults.Queues...)
		ff.Events = append([]config.FaultEventSpec(nil), h.baseFaults.Events...)
		if h.baseFaults.Network != nil {
			ff.Network = &config.NetFaultSpec{
				Partitions: append([]config.PartitionSpec(nil), h.baseFaults.Network.Partitions...),
				Links:      append([]config.LinkSpec(nil), h.baseFaults.Network.Links...),
			}
		}
	}
	return ff
}

// cleanFaults is the no-fault variant of the base file — policies kept,
// events stripped — the recovery baseline runs under.
func (h *Harness) cleanFaults() *config.FaultsFile {
	ff := h.faultsTemplate()
	ff.Events = nil
	ff.Network = nil
	return ff
}
