package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/hybrid"
	"uqsim/internal/rng"
	"uqsim/internal/service"
	"uqsim/internal/workload"
)

// SetHybrid enables hybrid fidelity for the run: a sampled fraction of
// requests (cfg.SampleRate) runs through the full stage-level DES path
// while the rest loads every service's queues statistically via the
// internal/hybrid fluid tier. Call before Run; the fluid model is built
// at Run time from the live client config and deployments, so fault-plan
// load steps and client overrides are reflected. Sample rate 1.0 is
// exactly a full-fidelity run: no extra random draws, no background
// accounting, bit-identical fingerprint.
func (s *Sim) SetHybrid(cfg hybrid.Config) { s.fluid = &fluidTier{cfg: cfg} }

// fluidTier is the hybrid-fidelity feature: the split and, from Run on, the
// background tier, whose methods (WaitFor, Finish) the core calls directly.
// Nil until SetHybrid, and from Run on at sample rate 1.
type fluidTier struct {
	cfg hybrid.Config
	*hybrid.State
}

// fluidResolve re-solves the background equilibrium at a fault or heal
// boundary. No-op outside hybrid runs; inside one, the fluid tier
// accrues the old solution up to now and solves the new one immediately
// instead of waiting out the rest of the 50ms epoch with stale rates.
func (s *Sim) fluidResolve(now des.Time) {
	if s.fluid != nil {
		s.fluid.Resolve(now)
	}
}

// sampleUsers makes a session client sample whole users, not requests: an
// unsampled user's entire journey belongs to the fluid tier, so sampled
// journeys keep their step-to-step correlation.
func (f *fluidTier) sampleUsers(sess *workload.Sessions, split *rng.Splitter) {
	sess.SampleRun = backgroundRun(split.PCG("hybrid", "sample"), f.SampleRate())
}

// backgroundRun samples each user id with probability rate, one draw per
// id on g in id order, and counts a run of unsampled ids in one loop. A
// draw is rng.Float64's k/2^53, k its low 53 bits, and k/2^53 ≥ rate
// exactly when k ≥ ⌈rate·2^53⌉ (both sides are exact in float64), so the
// loop decides as rng.Float64(g) >= rate would, on integers and with no
// call per draw beyond the generator's own.
func backgroundRun(g *rand.PCG, rate float64) func(n int) int {
	atLeast := backgroundFrom(rate)
	return func(n int) int {
		run := 0
		for run < n && g.Uint64()&(1<<53-1) >= atLeast {
			run++
		}
		return run
	}
}

// backgroundFrom is the least k whose draw k/2^53 is at or above rate.
func backgroundFrom(rate float64) uint64 {
	return uint64(math.Ceil(min(max(rate, 0), 1) * (1 << 53)))
}

// report fills the background section from the tier's closed books.
func (f *fluidTier) report(r *Report) {
	r.SampleRate = f.SampleRate()
	snap := f.Snapshot()
	r.BackgroundArrivals = uint64(snap.Arrivals)
	r.BackgroundCompletions = uint64(snap.Completions)
	r.BackgroundShed = uint64(snap.Shed)
	r.BackgroundUnreachable = uint64(snap.Unreachable)
	r.SaturatedEpochs = snap.SaturatedEpochs
	r.FluidWork = snap.Work
	r.BackgroundShedByCause = f.ByCause()
}

// setupHybrid builds the fluid tier at Run time over the client pattern
// pat and returns the pattern the foreground generator runs. An inert
// configuration (sample rate 1.0) removes the feature and leaves the
// simulation untouched.
func (s *Sim) setupHybrid(warmupEnd des.Time, pat workload.Pattern) (workload.Pattern, error) {
	cfg := s.fluid.cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleRate >= 1 {
		s.fluid = nil
		return pat, nil
	}
	if s.clientCfg.ClosedUsers > 0 {
		return nil, fmt.Errorf("sim: hybrid fidelity needs an open-loop or session client (closed_users thins poorly; model the population as sessions instead)")
	}

	visits, callers := s.fluidVisits()
	meanKB := 0.0
	if s.clientCfg.SizeKB != nil {
		meanKB = s.clientCfg.SizeKB.Mean()
	}
	var svcs []hybrid.Service
	for _, dep := range s.deps {
		name := dep.Name
		dep.fluid = -1
		v := visits[name]
		if v <= 0 {
			continue // never visited: carries no background load
		}
		ms, err := meanServiceSeconds(dep.BP, meanKB)
		if err != nil {
			return nil, err
		}
		dep.fluid = len(svcs)
		svcs = append(svcs, hybrid.Service{
			Name:         name,
			Visits:       v,
			MeanServiceS: ms,
			Servers: func() int {
				k := 0
				for _, in := range dep.Healthy() {
					k += in.Alloc.Cores
				}
				return k
			},
			Speed:  s.fluidSpeed(dep),
			Loss:   s.fluidLoss(dep, callers[name]),
			Policy: s.fluidPolicy(name),
		})
	}
	if len(svcs) == 0 {
		return nil, fmt.Errorf("sim: hybrid fidelity found no visited services to model")
	}

	// The offered-rate envelope the fluid tier follows. Open-loop clients
	// report the unthinned pattern (including any fault-plan load scale);
	// session clients resolve the population envelope through the closed
	// multi-service fixed point — closed traffic self-limits, it never
	// sheds.
	var rate func(t des.Time) float64
	if s.clientCfg.Sessions != nil {
		cfg.Closed = true
		sc := s.clientCfg.Sessions
		cr := newClosedRate(sc.MeanThinkS(), svcs)
		rate = func(t des.Time) float64 {
			return cr.at(float64(sc.PopulationAt(t)), s.fluid.Work())
		}
	} else {
		// The foreground runs the pattern thinned by the sample rate; the
		// tier follows the total offered load. Thinning a Poisson process by
		// p yields a Poisson process at p·λ, so the sampled foreground is
		// statistically exact, not an approximation.
		base, f := pat, cfg.SampleRate
		rate = func(t des.Time) float64 { return base.RateAt(t) }
		pat = &scaledPattern{base: base, scale: &f}
	}

	st, err := hybrid.New(cfg, svcs, rate, s.split)
	if err != nil {
		return nil, err
	}
	s.fluid.State = st
	st.Start(s.eng, 0, warmupEnd)
	return pat, nil
}

// fluidVisits walks the trees the client can select. visits is how many
// times a request visits each service, weighted by tree selection
// probabilities; brancher-pruned subtrees are counted as always taken — a
// documented upper bound. callers lists, sorted, the services whose
// instances issue RPCs into each service. Root services (called straight
// from the client) have none: client hops enter from outside the fabric and
// are exempt from network faults, matching the foreground dispatch path.
func (s *Sim) fluidVisits() (visits map[string]float64, callers map[string][]string) {
	visits, callers = make(map[string]float64), make(map[string][]string)
	for ti, w := range s.fluidTreeWeights() {
		if w <= 0 {
			continue
		}
		tr := &s.topo.Trees[ti]
		for i := range tr.Nodes {
			svc := tr.Nodes[i].Service
			visits[svc] += w
			for _, pid := range tr.Parents(i) {
				if p := tr.Nodes[pid].Service; p != svc && !slices.Contains(callers[svc], p) {
					callers[svc] = append(callers[svc], p)
				}
			}
		}
	}
	for _, cs := range callers {
		sort.Strings(cs)
	}
	return visits, callers
}

// fluidSpeed builds the DVFS coupling for one deployment: the healthy-
// core-weighted mean of 1/SpeedFactor, so a service with half its cores
// at half frequency serves at 75% nominal rate. No healthy cores means
// Servers() already reports zero capacity; speed 1 keeps µ well-defined.
func (s *Sim) fluidSpeed(dep *Deployment) func() float64 {
	return func() float64 {
		num, den := 0.0, 0.0
		for _, in := range dep.Healthy() {
			c := float64(in.Alloc.Cores)
			den += c
			num += c / in.Alloc.SpeedFactor()
		}
		if den <= 0 {
			return 1
		}
		return num / den
	}
}

// fluidLoss builds the network coupling for one deployment: the fraction
// of caller-instance → callee-instance machine pairs currently severed
// (partitions, region loss) and the mean gray-link drop probability over
// the still-reachable pairs. Callers is the sorted caller-service list
// from fluidVisits; services called only by the client see no network
// faults (client hops bypass the fabric in the foreground path too).
func (s *Sim) fluidLoss(dep *Deployment, callers []string) func() (float64, float64) {
	if len(callers) == 0 {
		return nil
	}
	return func() (float64, float64) {
		n := s.Net()
		if n == nil {
			return 0, 0
		}
		pairs, cutN, dropSum := 0, 0, 0.0
		for _, cs := range callers {
			for _, pin := range s.deployments[cs].Healthy() {
				src := pin.Alloc.Machine.ID
				for _, in := range dep.Healthy() {
					dst := in.Alloc.Machine.ID
					pairs++
					if !n.Reachable(src, dst) {
						cutN++
					} else if l, ok := n.LinkFor(src, dst); ok && src != dst {
						dropSum += l.Drop
					}
				}
			}
		}
		switch {
		case pairs == 0:
			// All caller or callee replicas down: capacity coupling
			// (Servers()==0) owns that failure mode, not reachability.
			return 0, 0
		case cutN == pairs:
			return 1, 0
		}
		return float64(cutN) / float64(pairs), dropSum / float64(pairs-cutN)
	}
}

// fluidPolicy maps a service-level resilience policy onto the mean-field
// retry model. Only the retry-relevant fields translate: an edge with a
// timeout and retries amplifies background load; a breaker threshold
// gates the amplification off once the equilibrium timeout probability
// trips it. Node-level overrides (SetNodePolicy) are a per-edge
// refinement the aggregate fluid tier cannot express; the service-wide
// policy is the documented approximation.
func (s *Sim) fluidPolicy(name string) *hybrid.Policy {
	pr := s.edgePolicy(-1, -1, name) // no tree node: the service-wide policy
	if pr == nil || pr.pol.Timeout <= 0 || pr.pol.MaxRetries <= 0 {
		return nil
	}
	pol := pr.pol
	hp := &hybrid.Policy{
		TimeoutS:   pol.Timeout.Seconds(),
		MaxRetries: pol.MaxRetries,
	}
	if pol.Breaker != nil {
		hp.BreakerThreshold = pol.Breaker.ErrorThreshold
	}
	return hp
}

// fluidTreeWeights resolves the probability each request targets each
// topology tree: the session journeys' step frequencies when sessions
// drive the client, else the client's tree-choice weights.
func (s *Sim) fluidTreeWeights() []float64 {
	w := make([]float64, len(s.topo.Trees))
	if s.clientCfg.Sessions != nil {
		copy(w, s.clientCfg.Sessions.TreeWeights())
		return w
	}
	for i := range w {
		w[i] = s.treeChoice.P(i)
	}
	return w
}

// meanServiceSeconds estimates one visit's mean busy time from the
// blueprint: path-probability-weighted sums of stage means plus the
// per-KB cost at the client's mean payload. Per-dispatch (batch) costs
// count in full — a deliberate upper bound, since batching amortizes
// them under load.
func meanServiceSeconds(bp *service.Blueprint, meanKB float64) (float64, error) {
	probs := bp.PathProbs
	if len(probs) != len(bp.Paths) || len(probs) == 0 {
		probs = []float64{1} // no path state machine: the first path
	}
	total := 0.0
	for _, p := range probs {
		total += p
	}
	ns := 0.0
	for i, p := range probs {
		path := 0.0
		for _, idx := range bp.Paths[i].Stages {
			st := &bp.Stages[idx]
			stage := st.PerKB * meanKB
			if st.Base != nil {
				stage += st.Base.Mean()
			}
			if st.PerJob != nil {
				stage += st.PerJob.Mean()
			}
			path += stage
		}
		ns += p / total * path
	}
	if math.IsNaN(ns) || math.IsInf(ns, 0) || ns <= 0 {
		return 0, fmt.Errorf("sim: hybrid fidelity needs a finite positive mean service time for %q (got %vns; heavy-tailed stages without a mean cannot be fluid-modeled)", bp.Name, ns)
	}
	return ns / 1e9, nil
}

// closedRate is the session client's offered-rate envelope: the closed-
// population fixed point over the full service chain, n users cycling
// through think time Z and every service's queue, λ = n / (Z + Σ
// visits·(E[S] + Wq)). The rate never exceeds the bottleneck capacity.
// Its steps evaluate through the run's M/M/k kernel, shared with the
// tier's epochs, and the envelope is piecewise-constant, so the last solve
// is memoized on its exact inputs: the population and every service's
// live core count and speed (both of which faults can change).
type closedRate struct {
	thinkS float64
	svcs   []hybrid.Service
	n      float64 // memoized population; NaN before the first solve
	in     []closedInput
	rate   float64
}

type closedInput struct {
	k     int
	speed float64
	es    float64 // effective seconds per visit, derived from speed
}

func newClosedRate(thinkS float64, svcs []hybrid.Service) *closedRate {
	return &closedRate{thinkS: thinkS, svcs: svcs, n: math.NaN(), in: make([]closedInput, len(svcs))}
}

// at returns the closed rate for population n at the services' current
// state, replaying the memoized solve when nothing it read has changed.
func (c *closedRate) at(n float64, work *hybrid.Counters) float64 {
	hit := n == c.n
	for i := range c.svcs {
		sv, in := &c.svcs[i], &c.in[i]
		// Effective per-visit service times: DVFS degrades stretch E[S] by
		// 1/speed, shifting both the zero-contention base time and the
		// bottleneck capacity the fixed point clamps to.
		k, speed := sv.Servers(), 1.0
		if sv.Speed != nil {
			speed = sv.Speed()
		}
		// Speeds compare by bits, so a NaN equals itself and still hits.
		if k != in.k || math.Float64bits(speed) != math.Float64bits(in.speed) {
			hit = false
			*in = closedInput{k: k, speed: speed, es: sv.MeanServiceS / speed}
		}
	}
	if hit {
		work.MemoHits++
		return c.rate
	}
	c.n = n
	c.rate = c.solve(n, work)
	return c.rate
}

func (c *closedRate) solve(n float64, work *hybrid.Counters) float64 {
	if n <= 0 {
		return 0
	}
	capacity := math.Inf(1)
	base := c.thinkS
	for i := range c.svcs {
		sv, in := &c.svcs[i], &c.in[i]
		if !(in.speed > 0) {
			return 0 // frozen service: closed users pile up behind it
		}
		if sv.Visits <= 0 {
			continue
		}
		base += sv.Visits * in.es
		if in.k <= 0 {
			// Total outage of a required service (every replica down under
			// a fault plan): closed users pile up behind it and the system
			// delivers nothing until it recovers.
			return 0
		}
		capacity = math.Min(capacity, float64(in.k)/in.es/sv.Visits)
	}
	if base <= 0 {
		return 0
	}
	// With no visited service capacity is +Inf and so is the clamp, which
	// then never binds.
	clamp := 0.999 * capacity
	lam := work.FixedPoint(math.Min(n/base, clamp), 64, func(lam float64) float64 {
		r := c.thinkS
		for i := range c.svcs {
			sv, in := &c.svcs[i], &c.in[i]
			r += sv.Visits * in.es
			if sv.Visits <= 0 {
				continue
			}
			w := work.At(lam*sv.Visits, 1/in.es, in.k).MeanWaitS
			if analytic.IsSaturated(w) {
				return clamp
			}
			r += sv.Visits * w
		}
		return 0.5*lam + 0.5*math.Min(n/r, clamp)
	})
	if math.IsNaN(lam) || math.IsInf(lam, 0) || lam < 0 {
		return 0
	}
	return lam
}
