package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/rng"
	"uqsim/internal/slab"
)

// Session-based user flows: instead of a bare arrival rate, the workload is
// a population of users, each walking multi-step journeys (think → request
// → think chains over the topology's request trees). The population itself
// is a first-class signal — phased ramps, flash crowds, and on/off bursty
// users — so "a million users" is a workload spec, not just a higher
// lambda. Every user owns a dedicated RNG stream split from the client
// seed, so the determinism fingerprint covers each user's think times,
// journey choices, and on/off phase independently of every other user.

// SessionStep is one request in a journey: think for Think (nanoseconds),
// then issue the request tree with topology index Tree and wait for its
// completion.
type SessionStep struct {
	Tree  int
	Think dist.Sampler // nil: zero think
}

// Journey is a weighted multi-step user flow (e.g. browse → search → buy).
// After the last step completes, the user draws a fresh journey.
type Journey struct {
	Name   string
	Weight float64
	Steps  []SessionStep
}

// PopPhase is one knot of the piecewise-linear population envelope: ramp
// linearly from the previous target to Users over [At, At+Ramp]. Phases
// must be sorted by At; ramps must not overlap the next phase's start.
type PopPhase struct {
	At    des.Time
	Users int
	Ramp  des.Time // 0: step change
}

// FlashCrowd superimposes a transient trapezoid of Extra users on the
// phase envelope: ramp up over RampUp starting at At, hold for Hold, ramp
// down over RampDown.
type FlashCrowd struct {
	At       des.Time
	Extra    int
	RampUp   des.Time
	Hold     des.Time
	RampDown des.Time
}

// OnOff makes every user bursty: active periods of mean MeanOn alternate
// with silent periods of mean MeanOff (both exponential, per-user stream).
// A user entering a silent period pauses at its next step boundary.
type OnOff struct {
	MeanOn  des.Time
	MeanOff des.Time
}

// SessionConfig specifies a session-driven client population.
type SessionConfig struct {
	// Users is the base population before any phases apply. Required >= 1
	// unless Phases set a target.
	Users    int
	Journeys []Journey
	Phases   []PopPhase
	Crowds   []FlashCrowd
	OnOff    *OnOff
	// PopTick is the population-control poll interval (default 10ms).
	// Only polled when Phases or Crowds are present.
	PopTick des.Time
}

// Validate rejects degenerate session specs: empty journeys, nonpositive
// weights, negative think means, empty steps, unsorted phases, zero/negative
// ramp populations, and flash crowds with nonpositive extra or negative
// durations.
func (c *SessionConfig) Validate() error {
	if c.Users < 0 {
		return fmt.Errorf("workload: sessions users must be >= 0, got %d", c.Users)
	}
	if c.Users == 0 && len(c.Phases) == 0 {
		return fmt.Errorf("workload: sessions need users >= 1 or a population phase")
	}
	if len(c.Journeys) == 0 {
		return fmt.Errorf("workload: sessions need at least one journey")
	}
	totalW := 0.0
	for _, j := range c.Journeys {
		if j.Weight < 0 || math.IsNaN(j.Weight) || math.IsInf(j.Weight, 0) {
			return fmt.Errorf("workload: journey %q weight must be finite and >= 0, got %v", j.Name, j.Weight)
		}
		totalW += j.Weight
		if len(j.Steps) == 0 {
			return fmt.Errorf("workload: journey %q has no steps", j.Name)
		}
		for s, st := range j.Steps {
			if st.Tree < 0 {
				return fmt.Errorf("workload: journey %q step %d has negative tree index", j.Name, s)
			}
			if st.Think != nil {
				if m := st.Think.Mean(); math.IsNaN(m) || m < 0 {
					return fmt.Errorf("workload: journey %q step %d think mean must be >= 0, got %v", j.Name, s, m)
				}
			}
		}
	}
	if totalW <= 0 {
		return fmt.Errorf("workload: journey weights sum to %v; at least one must be positive", totalW)
	}
	for i, p := range c.Phases {
		if p.Users < 0 {
			return fmt.Errorf("workload: population phase %d target must be >= 0, got %d", i, p.Users)
		}
		if p.At < 0 || p.Ramp < 0 {
			return fmt.Errorf("workload: population phase %d times must be >= 0", i)
		}
		if i > 0 && p.At < c.Phases[i-1].At {
			return fmt.Errorf("workload: population phases must be sorted by time (phase %d at %v after phase %d at %v)",
				i-1, c.Phases[i-1].At, i, p.At)
		}
		if i > 0 && c.Phases[i-1].At+c.Phases[i-1].Ramp > p.At {
			return fmt.Errorf("workload: population phase %d ramp ends at %v, overlapping phase %d start %v",
				i-1, c.Phases[i-1].At+c.Phases[i-1].Ramp, i, p.At)
		}
	}
	for i, f := range c.Crowds {
		if f.Extra <= 0 {
			return fmt.Errorf("workload: flash crowd %d extra users must be positive, got %d", i, f.Extra)
		}
		if f.At < 0 || f.RampUp < 0 || f.Hold < 0 || f.RampDown < 0 {
			return fmt.Errorf("workload: flash crowd %d times must be >= 0", i)
		}
	}
	if c.OnOff != nil {
		if c.OnOff.MeanOn <= 0 || c.OnOff.MeanOff <= 0 {
			return fmt.Errorf("workload: on/off mean_on and mean_off must be positive, got %v/%v",
				c.OnOff.MeanOn, c.OnOff.MeanOff)
		}
	}
	if c.PopTick < 0 {
		return fmt.Errorf("workload: sessions pop_tick must be >= 0, got %v", c.PopTick)
	}
	return nil
}

// PopulationAt evaluates the target population at virtual time t: the
// piecewise-linear phase envelope plus every flash crowd's trapezoid.
func (c *SessionConfig) PopulationAt(t des.Time) int {
	base := float64(c.Users)
	prev := base
	for _, p := range c.Phases {
		if t < p.At {
			break
		}
		if p.Ramp > 0 && t < p.At+p.Ramp {
			frac := float64(t-p.At) / float64(p.Ramp)
			base = prev + (float64(p.Users)-prev)*frac
			prev = float64(p.Users)
			continue
		}
		base = float64(p.Users)
		prev = base
	}
	for _, f := range c.Crowds {
		base += f.extraAt(t)
	}
	if base < 0 {
		return 0
	}
	return int(math.Round(base))
}

func (f FlashCrowd) extraAt(t des.Time) float64 {
	if t < f.At {
		return 0
	}
	x := t - f.At
	if f.RampUp > 0 && x < f.RampUp {
		return float64(f.Extra) * float64(x) / float64(f.RampUp)
	}
	x -= f.RampUp
	if x < f.Hold {
		return float64(f.Extra)
	}
	x -= f.Hold
	if f.RampDown > 0 && x < f.RampDown {
		return float64(f.Extra) * (1 - float64(x)/float64(f.RampDown))
	}
	return 0
}

// MeanThinkS is the journey-weighted mean think time per step, in seconds —
// the Z of the closed-population fixed point the fluid tier solves.
func (c *SessionConfig) MeanThinkS() float64 {
	var wSum, tSum float64
	for _, j := range c.Journeys {
		if j.Weight <= 0 || len(j.Steps) == 0 {
			continue
		}
		var jt float64
		for _, st := range j.Steps {
			if st.Think != nil {
				jt += st.Think.Mean()
			}
		}
		wSum += j.Weight
		tSum += j.Weight * jt / float64(len(j.Steps))
	}
	if wSum <= 0 {
		return 0
	}
	return tSum / wSum / 1e9 // samplers return nanoseconds
}

// TreeWeights is the long-run fraction of issued requests that target each
// topology tree (journey-weighted step frequencies), sized to cover the
// largest tree index. The fluid tier uses it to split background user
// traffic across request trees.
func (c *SessionConfig) TreeWeights() []float64 {
	maxTree := -1
	for _, j := range c.Journeys {
		for _, st := range j.Steps {
			if st.Tree > maxTree {
				maxTree = st.Tree
			}
		}
	}
	if maxTree < 0 {
		return nil
	}
	w := make([]float64, maxTree+1)
	var total float64
	for _, j := range c.Journeys {
		if j.Weight <= 0 {
			continue
		}
		for _, st := range j.Steps {
			w[st.Tree] += j.Weight
			total += j.Weight
		}
	}
	if total > 0 {
		for i := range w {
			w[i] /= total
		}
	}
	return w
}

// sessionUser is one live simulated (foreground-sampled) user. Records
// come from Sessions' slab and go back to it when the user departs, with
// neither a wake-up pending nor a request in flight; the generator, its
// rand.Rand and the wake callback are part of the record, set up when it
// is carved.
type sessionUser struct {
	pcg      rand.PCG
	r        rand.Rand        // draws from pcg
	wake     func(t des.Time) // issues the next request; bound once per record
	id       int
	journey  int
	step     int
	offAt    des.Time // end of the current on-period (OnOff only)
	lastIss  des.Time
	issued   bool // lastIss is meaningful
	inflight bool // a request is outstanding; Done will advance
	retiring bool // depart at the next step boundary
}

// Sessions drives a population of journey-walking users. The sim layer
// must call Done for every completion (success, failure, or timeout
// exhaustion) attributed to a session user, mirroring the closed-loop
// contract.
type Sessions struct {
	// Emit issues one request for user on the given topology tree.
	// Required.
	Emit func(now des.Time, user, tree int)
	// SampleRun, when non-nil, decides at spawn which users run at full
	// DES fidelity, a run at a time: given the next n user ids, it reports
	// how many of them come before the first sampled one, n when none is.
	// The id after a shorter run is the sampled one, so every id is
	// decided once, in id order. Unsampled users never Emit — the hybrid
	// fluid tier carries their load analytically — but still count toward
	// the population. nil: every user is simulated.
	SampleRun func(n int) int

	cfg   SessionConfig
	eng   *des.Engine
	split *rng.Splitter

	users map[int]*sessionUser
	spare slab.Slab[sessionUser]
	// order lists users in spawn order, for LIFO retirement, run-length
	// coded: one entry per simulated user, holding its id and the number of
	// background users spawned after it and before the next simulated one.
	// order[0] is a sentinel (id -1) that holds the background users older
	// than every simulated one. Spawning or retiring a background user
	// moves a count, so the list grows with the simulated users only. A
	// departed user leaves its entry behind as a tombstone (an id no longer
	// in users), which retire skips; departed counts them and compactOrder
	// sweeps them once they are the larger half, so a departure costs O(1)
	// amortised however long the list. orderSwept counts the entries those
	// sweeps visit.
	order      []orderEntry
	departed   int
	orderSwept int
	// exhaustedFrom marks the exhausted suffix order[exhaustedFrom:]:
	// entries with no background users after them whose simulated user is
	// retiring or gone. Nothing makes such an entry useful to retire again
	// except a spawn (which appends or adds background users at the end)
	// or compactOrder (which moves entries), and both reset the mark to
	// len(order); so retire resumes below it instead of walking the whole
	// list, and its work is per user retired. retireVisits counts the
	// entries retire visits.
	exhaustedFrom int
	retireVisits  int
	nextID        int
	bgUsers       int
	// pendingRetire counts simulated users marked retiring but not yet
	// departed: they still hold map slots until their next step boundary,
	// so population control must not count them as excess again.
	pendingRetire int
	jCum          []float64
	stopTick      bool
}

type orderEntry struct {
	id      int // simulated user, or -1 for the sentinel
	bgAfter int // background users spawned between this entry and the next
}

// NewSessions builds a session source. The splitter must be dedicated to
// this source (each user's stream is split from it by id).
func NewSessions(eng *des.Engine, split *rng.Splitter, cfg SessionConfig, emit func(now des.Time, user, tree int)) (*Sessions, error) {
	if emit == nil {
		return nil, fmt.Errorf("workload: sessions need an emit callback")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sessions{
		Emit:  emit,
		cfg:   cfg,
		eng:   eng,
		split: split,
		users: make(map[int]*sessionUser),
		order: []orderEntry{{id: -1}},
	}
	s.exhaustedFrom = len(s.order)
	s.jCum = make([]float64, len(cfg.Journeys))
	cum := 0.0
	for i, j := range cfg.Journeys {
		cum += math.Max(j.Weight, 0)
		s.jCum[i] = cum
	}
	return s, nil
}

// Start spawns the initial population and, when the population envelope is
// dynamic, begins the control poll.
func (s *Sessions) Start(at des.Time) {
	s.adjust(at)
	if len(s.cfg.Phases) > 0 || len(s.cfg.Crowds) > 0 {
		tick := s.cfg.PopTick
		if tick <= 0 {
			tick = 10 * des.Millisecond
		}
		var poll func(t des.Time)
		poll = func(t des.Time) {
			if s.stopTick {
				return
			}
			s.adjust(t)
			s.eng.Post(t+tick, poll)
		}
		s.eng.Post(at+tick, poll)
	}
}

// Stop halts population control and retires every user at its next step
// boundary (inflight requests drain normally).
func (s *Sessions) Stop() {
	s.stopTick = true
	for _, u := range s.users {
		if !u.retiring {
			u.retiring = true
			s.pendingRetire++
		}
	}
}

// ActiveUsers is the current population (simulated + background).
func (s *Sessions) ActiveUsers() int { return len(s.users) + s.bgUsers }

// adjust reconciles the live population with the target at time t.
// Retiring users still occupy their slots until the next step boundary —
// with think times longer than the poll tick that can span many ticks —
// so the deficit is measured against the settled population (live minus
// pending retirements); counting retirees as excess every tick would
// cascade a small ramp-down into retiring the whole population.
func (s *Sessions) adjust(now des.Time) {
	target := s.cfg.PopulationAt(now)
	cur := s.ActiveUsers() - s.pendingRetire
	if cur < target {
		s.spawn(now, target-cur)
	} else if cur > target {
		s.retire(cur - target)
	}
}

// spawn adds n users with the next n ids. SampleRun decides them a run at
// a time; a run of background ids costs one call and is recorded with one
// count, and only a sampled id becomes a user.
func (s *Sessions) spawn(now des.Time, n int) {
	for n > 0 {
		if s.SampleRun != nil {
			run := s.SampleRun(n)
			s.nextID += run
			s.bgUsers += run
			s.order[len(s.order)-1].bgAfter += run
			if n -= run; n == 0 {
				break
			}
		}
		s.spawnSim(now, s.nextID)
		s.nextID++
		n--
	}
	s.exhaustedFrom = len(s.order)
}

// spawnSim starts simulated user id: its own stream, a first journey, and
// its first request after the first think time.
func (s *Sessions) spawnSim(now des.Time, id int) {
	u := s.spare.Get()
	if u.wake == nil { // fresh from the slab
		u.r = *rand.New(&u.pcg)
		u.wake = func(t des.Time) { s.issue(t, u) }
	}
	s.split.SeedPCG(&u.pcg, "user", id)
	u.id, u.step, u.offAt, u.lastIss, u.issued, u.inflight, u.retiring = id, 0, 0, 0, false, false, false
	u.journey = s.pickJourney(&u.r)
	if s.cfg.OnOff != nil {
		u.offAt = now + expTime(&u.r, s.cfg.OnOff.MeanOn)
	}
	s.users[id] = u
	s.order = append(s.order, orderEntry{id: id})
	s.issueAfterThink(now, u)
}

// retire removes n users, newest first. Background users vanish
// immediately; simulated users depart at their next step boundary so
// inflight requests drain and conservation holds. The walk starts below
// the exhausted suffix, whose entries it would only pass over, and moves
// the mark down to the entry where it stopped.
func (s *Sessions) retire(n int) {
	i := s.exhaustedFrom - 1
	for ; i >= 0 && n > 0; i-- {
		s.retireVisits++
		e := &s.order[i]
		// The background users after e are newer than e itself.
		bg := min(e.bgAfter, n)
		e.bgAfter -= bg
		s.bgUsers -= bg
		if n -= bg; n == 0 {
			break // e may keep background users, and its own user is unseen
		}
		u, ok := s.users[e.id]
		if !ok || u.retiring {
			continue
		}
		u.retiring = true
		s.pendingRetire++
		n--
	}
	s.exhaustedFrom = i + 1
}

func (s *Sessions) pickJourney(r *rng.Source) int {
	return s.journeyAt(r.Float64() * s.jCum[len(s.jCum)-1])
}

// journeyAt maps a draw x ∈ [0, total) to the journey whose cumulative
// weight interval contains it. The search is strictly-greater so a draw
// landing exactly on a boundary belongs to the next interval — zero-weight
// journeys have empty intervals and are unreachable for every draw.
func (s *Sessions) journeyAt(x float64) int {
	return sort.Search(len(s.jCum), func(i int) bool { return s.jCum[i] > x })
}

// issueAfterThink schedules user id's next request after the current
// step's think time (plus any off-period pause).
func (s *Sessions) issueAfterThink(now des.Time, u *sessionUser) {
	j := s.cfg.Journeys[u.journey]
	st := j.Steps[u.step]
	gap := des.Time(0)
	if st.Think != nil {
		gap = des.FromNanos(st.Think.Sample(&u.r))
	}
	// A zero-think user completing instantly (e.g. shed at admission)
	// would otherwise re-issue at the same virtual instant forever,
	// wedging the event loop without advancing time.
	if gap <= 0 && u.issued && now <= u.lastIss {
		gap = des.Millisecond
	}
	if s.cfg.OnOff != nil && now+gap >= u.offAt {
		// Entering a silent period: pause for Exp(MeanOff), then start a
		// fresh on-period.
		pause := expTime(&u.r, s.cfg.OnOff.MeanOff)
		gap += pause
		u.offAt = now + gap + expTime(&u.r, s.cfg.OnOff.MeanOn)
	}
	s.eng.Post(now+gap, u.wake)
}

// issue is a user's wake-up after its think time: it sends the current
// step's request, unless the user was retired while thinking.
func (s *Sessions) issue(t des.Time, u *sessionUser) {
	if u.retiring {
		s.depart(u)
		return
	}
	u.inflight = true
	u.lastIss = t
	u.issued = true
	s.Emit(t, u.id, s.cfg.Journeys[u.journey].Steps[u.step].Tree)
}

// Done advances user id past its current step: the sim layer calls it
// exactly once per completed (or abandoned) session request.
func (s *Sessions) Done(now des.Time, user int) {
	u, ok := s.users[user]
	if !ok || !u.inflight {
		return
	}
	u.inflight = false
	if u.retiring {
		s.depart(u)
		return
	}
	u.step++
	if u.step >= len(s.cfg.Journeys[u.journey].Steps) {
		u.journey = s.pickJourney(&u.r)
		u.step = 0
	}
	s.issueAfterThink(now, u)
}

// depart removes u, which has no wake-up pending and no request in flight,
// and gives its record back.
func (s *Sessions) depart(u *sessionUser) {
	if u.retiring && s.pendingRetire > 0 {
		s.pendingRetire--
	}
	delete(s.users, u.id)
	s.spare.Put(u)
	s.departed++
	if s.departed > 64 && s.departed*2 > len(s.order) {
		s.compactOrder()
	}
}

// compactOrder drops the tombstones of departed users, keeping the order
// of everyone else: a tombstone's background run joins the entry before it.
func (s *Sessions) compactOrder() {
	s.orderSwept += len(s.order)
	live := s.order[:1] // the sentinel stays
	for _, e := range s.order[1:] {
		if _, ok := s.users[e.id]; ok {
			live = append(live, e)
		} else {
			live[len(live)-1].bgAfter += e.bgAfter
		}
	}
	s.order = live
	s.departed = 0
	s.exhaustedFrom = len(s.order)
}

func expTime(r *rng.Source, mean des.Time) des.Time {
	d := des.FromNanos(r.ExpFloat64() * float64(mean))
	if d < des.Millisecond {
		d = des.Millisecond
	}
	return d
}
