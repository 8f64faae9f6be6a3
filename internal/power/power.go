// Package power implements the paper's QoS-aware power-management
// algorithm (Algorithm 1, §V-B): a divide-and-conquer DVFS controller that
// splits the end-to-end tail-latency QoS into per-tier latency targets.
//
// The controller partitions the tail-latency space below the QoS target
// into buckets. Each observed, QoS-meeting interval contributes its
// per-tier p99 tuple to the bucket its end-to-end p99 falls into; failing
// tuples (targets in force during a violation) are remembered per bucket,
// and new tuples are only inserted when they are no more relaxed than any
// failing tuple. At runtime the controller samples a target bucket with
// learned preference weights, adopts one of its tuples as the per-tier QoS,
// slows down at most one tier per cycle (the one with the most latency
// slack), and on a violation penalizes the bucket, records the failing
// tuple, and speeds up every tier above its target.
package power

import (
	"fmt"

	"uqsim/internal/cluster"
	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/rng"
	"uqsim/internal/sim"
	"uqsim/internal/stats"
)

// Tier is one controllable application tier: a name (matching the service
// name used in per-tier latency accounting) and the core allocations whose
// frequency the controller drives.
type Tier struct {
	Name   string
	Allocs []*cluster.Allocation
	num    int // the sim's tier number for Name, resolved by New
}

// setFreqSteps moves every allocation of the tier by n DVFS steps (n may be
// negative) and returns the resulting frequency.
func (t *Tier) step(n int) float64 {
	f := 0.0
	for _, a := range t.Allocs {
		if n >= 0 {
			f = a.StepUp(n)
		} else {
			f = a.StepDown(-n)
		}
	}
	return f
}

// freq reports the tier's current frequency (allocations move together).
func (t *Tier) freq() float64 {
	if len(t.Allocs) == 0 {
		return 0
	}
	return t.Allocs[0].Freq()
}

// nominal reports the tier's nominal (maximum) frequency.
func (t *Tier) nominal() float64 {
	if len(t.Allocs) == 0 {
		return 0
	}
	return t.Allocs[0].Machine.Freq.MaxMHz
}

// canSlowDown reports whether the tier has DVFS room below its current
// frequency.
func (t *Tier) canSlowDown() bool {
	if len(t.Allocs) == 0 {
		return false
	}
	a := t.Allocs[0]
	return a.Freq() > a.Machine.Freq.MinMHz
}

// tuple is a per-tier p99 latency vector, indexed like Manager.tiers.
type tuple []des.Time

// noMoreRelaxedThan reports whether a is no more relaxed than b: a is "more
// relaxed" when every component is ≥ b's and at least one is strictly
// greater.
func (a tuple) noMoreRelaxedThan(b tuple) bool {
	allGE, anyGT := true, false
	for i := range a {
		if a[i] < b[i] {
			allGE = false
		}
		if a[i] > b[i] {
			anyGT = true
		}
	}
	return !(allGE && anyGT)
}

type bucket struct {
	lo, hi     des.Time
	tuples     []tuple
	failing    []tuple
	preference float64
}

func (b *bucket) insert(s tuple) {
	for _, f := range b.failing {
		if !s.noMoreRelaxedThan(f) {
			return
		}
	}
	b.tuples = append(b.tuples, s)
	const maxTuples = 64
	if len(b.tuples) > maxTuples {
		b.tuples = b.tuples[len(b.tuples)-maxTuples:]
	}
}

// Config parameterizes the controller.
type Config struct {
	// Target is the end-to-end tail-latency QoS (e.g. 5ms p99).
	Target des.Time
	// Quantile of the latency distributions compared against targets
	// (default 0.99).
	Quantile float64
	// Interval is the decision period (the paper evaluates 0.1s, 0.5s,
	// and 1s).
	Interval des.Time
	// Buckets partitions [0, Target] (default 5).
	Buckets int
	// RetargetCycles is how many QoS-meeting cycles pass between
	// re-sampling the target bucket (Algorithm 1's CycleCount check;
	// default 10).
	RetargetCycles int
	// ProbePeriod is the minimum virtual time between exploratory
	// slowdowns past the learned targets (default 10s). Probing is what
	// tests whether "more aggressive power management settings are
	// acceptable"; each probe that violates QoS costs roughly one
	// detection interval plus recovery, which is why longer decision
	// intervals violate QoS for a larger fraction of time (Table III).
	ProbePeriod des.Time
	// Seed drives the controller's random choices.
	Seed uint64
}

// Manager runs Algorithm 1 against a live simulation.
type Manager struct {
	cfg   Config
	eng   *des.Engine
	tiers []*Tier
	r     *rng.Source

	e2e     *stats.WindowedTail
	perTier []*stats.WindowedTail

	buckets      []*bucket
	targetBucket int
	target       tuple // per-tier QoS currently in force
	cyclesOnTgt  int

	// Traces for Fig. 16.
	TailTrace *stats.TimeSeries            // end-to-end p99 per cycle (ms)
	FreqTrace map[string]*stats.TimeSeries // per-tier frequency (MHz)

	tick       des.Callback // m.cycle, bound once
	lastProbe  des.Time
	cycles     int
	violations int
	freqSum    float64 // Σ over cycles of mean tier frequency
	energySum  float64 // Σ over cycles of mean normalized power (f/fnom)³
}

// New creates a controller over the given tiers of s. Wire Observe to
// s.OnRequestDone, then Start.
func New(s *sim.Sim, cfg Config, tiers []*Tier) (*Manager, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("power: needs a positive QoS target")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("power: needs a positive decision interval")
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("power: needs at least one tier")
	}
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		cfg.Quantile = 0.99
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 5
	}
	if cfg.RetargetCycles <= 0 {
		cfg.RetargetCycles = 10
	}
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = 10 * des.Second
	}
	m := &Manager{
		cfg:       cfg,
		eng:       s.Engine(),
		tiers:     tiers,
		r:         rng.New(cfg.Seed ^ 0x9e37),
		e2e:       stats.NewWindowedTail(cfg.Interval),
		TailTrace: stats.NewTimeSeries("p99"),
		FreqTrace: make(map[string]*stats.TimeSeries),
	}
	for _, tier := range tiers {
		tier.num = s.TierNumber(tier.Name)
		m.perTier = append(m.perTier, stats.NewWindowedTail(cfg.Interval))
		m.FreqTrace[tier.Name] = stats.NewTimeSeries(tier.Name + ".freq")
	}
	width := cfg.Target / des.Time(cfg.Buckets)
	for i := 0; i < cfg.Buckets; i++ {
		m.buckets = append(m.buckets, &bucket{
			lo:         des.Time(i) * width,
			hi:         des.Time(i+1) * width,
			preference: 1,
		})
	}
	m.targetBucket = cfg.Buckets - 1 // start near the QoS boundary
	m.tick = m.cycle
	return m, nil
}

// Observe feeds one completed request into the controller's windows. Wire
// it to sim.Sim.OnRequestDone.
func (m *Manager) Observe(now des.Time, req *job.Request) {
	m.e2e.Record(now, req.Latency())
	for i, tier := range m.tiers {
		if d, ok := req.TierLatency(tier.num); ok {
			m.perTier[i].Record(now, d)
		}
	}
}

// Start schedules the first decision cycle.
func (m *Manager) Start() {
	m.eng.Post(m.eng.Now()+m.cfg.Interval, m.tick)
}

// cycle is one pass of Algorithm 1.
func (m *Manager) cycle(now des.Time) {
	defer m.eng.Post(now+m.cfg.Interval, m.tick)

	p99, ok := m.e2e.Quantile(now, m.cfg.Quantile)
	if !ok {
		return // no traffic this interval
	}
	cur := make(tuple, len(m.tiers))
	for i := range m.tiers {
		if v, vok := m.perTier[i].Quantile(now, m.cfg.Quantile); vok {
			cur[i] = v
		}
	}
	m.cycles++
	m.TailTrace.Record(now, p99.Millis())
	meanF, meanP := 0.0, 0.0
	for _, tier := range m.tiers {
		f := tier.freq()
		m.FreqTrace[tier.Name].Record(now, f)
		meanF += f
		if nom := tier.nominal(); nom > 0 {
			r := f / nom
			meanP += r * r * r
		} else {
			meanP++
		}
	}
	m.freqSum += meanF / float64(len(m.tiers))
	m.energySum += meanP / float64(len(m.tiers))

	if p99 < m.cfg.Target {
		b := m.bucketOf(p99)
		b.insert(cur)
		b.preference *= 1.1
		m.cyclesOnTgt++
		if m.cyclesOnTgt > m.cfg.RetargetCycles {
			m.chooseTarget()
		}
		m.slowDownSlackiest(now, cur, p99)
		return
	}

	// QoS violation.
	m.violations++
	b := m.buckets[m.targetBucket]
	b.preference *= 0.5
	if b.preference < 1e-6 {
		b.preference = 1e-6
	}
	if m.target != nil {
		b.failing = append(b.failing, m.target)
	}
	m.chooseTarget()
	m.speedUpViolators(cur)
}

func (m *Manager) bucketOf(v des.Time) *bucket {
	for _, b := range m.buckets {
		if v >= b.lo && v < b.hi {
			return b
		}
	}
	return m.buckets[len(m.buckets)-1]
}

// chooseTarget samples a bucket by preference and adopts one of its tuples
// as the per-tier QoS.
func (m *Manager) chooseTarget() {
	m.cyclesOnTgt = 0
	total := 0.0
	for _, b := range m.buckets {
		if len(b.tuples) > 0 {
			total += b.preference
		}
	}
	if total <= 0 {
		m.target = nil
		return
	}
	u := m.r.Float64() * total
	for i, b := range m.buckets {
		if len(b.tuples) == 0 {
			continue
		}
		u -= b.preference
		if u <= 0 {
			m.targetBucket = i
			m.target = b.tuples[m.r.IntN(len(b.tuples))]
			return
		}
	}
	m.targetBucket = len(m.buckets) - 1
}

// slowDownSlackiest lowers the frequency of the single tier with the most
// latency slack against its per-tier target — one tier per cycle, per the
// paper, to avoid cascading violations. When no tier shows slack against
// the learned tuple but the end-to-end tail still has headroom against the
// QoS target, the controller probes downward anyway ("the scheduler
// periodically selects a tier with high latency slack to slow down, and
// observes the change in end-to-end performance"); the learned failing
// tuples are what stop it from repeating probes that violated.
func (m *Manager) slowDownSlackiest(now des.Time, cur tuple, p99 des.Time) {
	if m.target != nil {
		best, bestSlack := -1, des.Time(0)
		for i := range m.tiers {
			if !m.tiers[i].canSlowDown() {
				continue
			}
			slack := m.target[i] - cur[i]
			if slack > bestSlack {
				best, bestSlack = i, slack
			}
		}
		if best >= 0 {
			m.tiers[best].step(-m.stepsFor(bestSlack, m.target[best]))
			return
		}
	}
	m.probeSlowdown(now, cur, p99)
}

// stepsFor sizes a slowdown: large relative slack descends several DVFS
// bins at once, small slack probes one bin.
func (m *Manager) stepsFor(slack, ref des.Time) int {
	if ref <= 0 {
		return 1
	}
	frac := float64(slack) / float64(ref)
	switch {
	case frac > 0.75:
		return 3
	case frac > 0.4:
		return 2
	default:
		return 1
	}
}

// probeSlowdown lowers the tier with the smallest measured latency that
// still has DVFS room, sized by the end-to-end headroom against the QoS
// target.
func (m *Manager) probeSlowdown(now des.Time, cur tuple, p99 des.Time) {
	if now-m.lastProbe < m.cfg.ProbePeriod {
		return
	}
	best := -1
	var bestVal des.Time
	for i, v := range cur {
		if !m.tiers[i].canSlowDown() {
			continue
		}
		if best < 0 || v < bestVal {
			best, bestVal = i, v
		}
	}
	if best < 0 {
		return // every tier already at minimum frequency
	}
	m.lastProbe = now
	m.tiers[best].step(-m.stepsFor(m.cfg.Target-p99, m.cfg.Target))
}

// speedUpViolators raises every tier whose measured latency exceeds its
// per-tier target (all tiers when no target is in force).
func (m *Manager) speedUpViolators(cur tuple) {
	for i, tier := range m.tiers {
		if m.target == nil || cur[i] > m.target[i] {
			tier.step(+4)
		}
	}
}

// Cycles reports completed decision cycles.
func (m *Manager) Cycles() int { return m.cycles }

// ViolationRate reports the fraction of cycles in violation (Table III).
func (m *Manager) ViolationRate() float64 {
	if m.cycles == 0 {
		return 0
	}
	return float64(m.violations) / float64(m.cycles)
}

// MeanFrequency reports the average of the tiers' mean frequency across
// cycles, in MHz.
func (m *Manager) MeanFrequency() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.freqSum / float64(m.cycles)
}

// NormalizedEnergy reports the mean dynamic-power draw relative to running
// every tier at nominal frequency, using the cubic frequency–power model
// (P ∝ f·V² with V ∝ f). 1.0 means no saving; 0.13 is the floor at
// 1.2/2.6 GHz.
func (m *Manager) NormalizedEnergy() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.energySum / float64(m.cycles)
}
