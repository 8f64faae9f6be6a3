// Package hybrid is the fluid/mean-field fidelity tier: instead of running
// every request as a full stage-level DES job, a configurable sampled
// fraction runs through the real `internal/sim` path while the remaining
// background traffic loads each service's queues *statistically*, from the
// `internal/analytic` M/M/k equilibrium machinery. The equilibrium is
// piecewise-constant: re-evaluated every epoch as the arrival envelope
// (diurnal/burst patterns, session populations) and the live replica
// counts (control-plane scaling, failures) change.
//
// Contract with the DES layer:
//
//   - Sampled (foreground) requests run the full simulation path; at each
//     service admission the tier injects an extra queue-wait draw from the
//     M/M/k waiting-time distribution evaluated at the TOTAL offered load
//     (foreground + background), so sampled latencies reflect contention
//     with traffic that is not individually simulated. The small
//     double-count — sampled requests also queue behind each other inside
//     the DES — scales with the sample rate and is negligible at the small
//     rates the tier is built for.
//   - Background requests are accrued fractionally per epoch
//     ((1−p)·λ(t)·Δt, left rule) and resolved into the conservation
//     identity at report time: BgArrivals == BgCompletions + BgShed +
//     BgUnreachable, by construction. Open-loop background traffic
//     beyond the bottleneck capacity is shed at the bottleneck rate;
//     closed (session) traffic self-limits instead (users queue, they
//     don't vanish). Flow on machine pairs severed by a partition or
//     dropped on a gray link accrues as unreachable, and every lost
//     request is attributed to its causing fault family (ByCause).
//   - Faults couple into the equilibrium itself: DVFS degrades scale the
//     effective µ, capacity losses shrink k, resilience policies inflate
//     λ to λ·E[attempts] (retry storms, gated by breaker thresholds),
//     and fault/heal boundaries re-solve event-driven via Resolve — not
//     just at the next epoch edge.
//   - Every random draw comes from streams split off the client seed
//     ("hybrid", ...), so the determinism fingerprint covers the tier and
//     a sample-rate of 1.0 — which disables every draw and every accrual —
//     is bit-identical to a pure-DES run.
package hybrid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"uqsim/internal/analytic"
	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// Cause is the fault family lost background flow is charged to — the
// per-fault attribution the run report and the extended background
// conservation identity carry. One deterministic cause is charged per
// epoch per family (the bottleneck's dominant condition), so the causes
// always sum exactly to the shed + unreachable totals. Each cause is one
// row of causeRows.
type Cause uint8

// Causes, in causeRows' order: by name.
const (
	// CauseCapacity: the bottleneck lost servers (instance kills, machine
	// or domain crashes) relative to its high-water replica count.
	CauseCapacity Cause = iota
	// CauseDegradeFreq: the bottleneck's effective µ is DVFS-degraded.
	CauseDegradeFreq
	// CauseGrayLink: flow dropped probabilistically on lossy links.
	CauseGrayLink
	// CauseOverload: the offered rate alone exceeds healthy capacity.
	CauseOverload
	// CausePartition: flow on machine pairs severed by a partition.
	CausePartition
	// CauseRetryStorm: stable at one attempt per request, saturated only
	// by the mean-field retry amplification λ·E[attempts].
	CauseRetryStorm
	numCauses
)

// causeRows is the cause table: each cause's name, as the bgcause=
// fingerprint section and the hybridfault table spell it, and its family:
// flow shed at a saturated bottleneck, or flow lost unreachable on the
// network. Rows are in name order, which is the order attribution breaks
// ties in and Losses renders.
var causeRows = [numCauses]struct {
	name        string
	unreachable bool
}{
	CauseCapacity:    {"capacity", false},
	CauseDegradeFreq: {"degrade_freq", false},
	CauseGrayLink:    {"gray_link", true},
	CauseOverload:    {"overload", false},
	CausePartition:   {"partition", true},
	CauseRetryStorm:  {"retry_storm", false},
}

// String names the cause.
func (c Cause) String() string { return causeRows[c].name }

// Losses counts lost background requests by Cause.
type Losses [numCauses]uint64

// Sum totals the losses over every cause.
func (l Losses) Sum() uint64 {
	var n uint64
	for _, v := range l {
		n += v
	}
	return n
}

// String renders the nonzero causes as "name:count,..." in row order, or
// "" when there are none.
func (l Losses) String() string {
	var parts []string
	for c, n := range l {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", Cause(c), n))
		}
	}
	return strings.Join(parts, ",")
}

// Config selects the fidelity split.
type Config struct {
	// SampleRate is the fraction of requests simulated at full DES
	// fidelity, in (0, 1]. 1.0 disables the fluid tier entirely.
	SampleRate float64
	// Epoch is the re-evaluation interval of the piecewise equilibrium
	// (default 50ms of virtual time).
	Epoch des.Time
	// MaxWaitFactor caps the injected wait at MaxWaitFactor × mean
	// service time when a service is saturated and the equilibrium wait
	// is unbounded (default 100).
	MaxWaitFactor float64
	// Closed marks the background flow as a closed population (sessions):
	// it self-limits at the bottleneck instead of shedding.
	Closed bool
}

// Validate rejects sample rates outside (0, 1] and negative knobs.
func (c Config) Validate() error {
	if math.IsNaN(c.SampleRate) || c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("hybrid: sample rate must be in (0, 1], got %v", c.SampleRate)
	}
	if c.Epoch < 0 {
		return fmt.Errorf("hybrid: epoch must be >= 0, got %v", c.Epoch)
	}
	if c.MaxWaitFactor < 0 {
		return fmt.Errorf("hybrid: max wait factor must be >= 0, got %v", c.MaxWaitFactor)
	}
	return nil
}

// Service describes one service's fluid model: how often a request visits
// it, how long a visit holds a server, and how many servers are live right
// now (queried every epoch, so autoscaling and failures feed back).
type Service struct {
	Name string
	// Visits is the mean number of visits per end-to-end request
	// (path-probability-weighted, across request trees).
	Visits float64
	// MeanServiceS is the mean busy time per visit in seconds.
	MeanServiceS float64
	// Servers reports the live server count. Required.
	Servers func() int
	// Speed reports the service's current effective speed multiplier:
	// 1 at nominal frequency, < 1 while DVFS-underclocked (the
	// healthy-core-weighted mean of 1/SpeedFactor). Optional; nil means
	// nominal speed. Effective µ is Speed()/MeanServiceS, so frequency
	// degrades re-solve the equilibrium exactly like capacity changes.
	Speed func() float64
	// Loss reports the network-fault loss on this service's incoming
	// background edges: cut is the fraction of caller→callee machine
	// pairs currently severed by partitions, drop the mean gray-link
	// drop probability over the reachable pairs. Optional; nil means a
	// perfect fabric.
	Loss func() (cut, drop float64)
	// Policy is the resilience policy guarding the edge into this
	// service, applied to background flow in mean field: timeouts and
	// retries inflate the effective offered rate λ·E[attempts], and a
	// breaker threshold gates the amplification when the equilibrium
	// failure rate would hold the breaker open. Optional.
	Policy *Policy
}

// Policy is the fluid tier's mean-field view of a fault.Policy: enough to
// compute the equilibrium per-attempt timeout probability and the
// resulting retry amplification. Declared here (not imported from
// internal/fault) to keep the hybrid package free of the DES-layer types.
type Policy struct {
	// TimeoutS bounds one attempt's queue wait, in seconds.
	TimeoutS float64
	// MaxRetries re-issues a timed-out attempt up to this many times.
	MaxRetries int
	// BreakerThreshold is the breaker's error-rate trip point (0: no
	// breaker). When the equilibrium per-attempt failure probability
	// meets it, the breaker is open in mean field and retries fail fast
	// instead of amplifying the offered rate.
	BreakerThreshold float64
}

// point is one service's frozen equilibrium for the current epoch.
// evalKey memoizes one service's equilibrium inputs: M/M/k evaluation is
// O(k) (Erlang-C sums over servers), which dominates epochs on large
// deployments even though the inputs rarely change between epochs. The
// key covers every input the solution depends on — λ after network-loss
// thinning, the live server count, and the effective per-server rate µ —
// so a mid-run DVFS change invalidates the memo like a capacity change.
type evalKey struct {
	lambda float64
	k      int
	mu     float64
	valid  bool
}

type point struct {
	analytic.MMkPoint
	capped des.Time
	amp    float64 // mean-field retry amplification E[attempts]
}

// Counters is the simulator-side work the fluid tier did in one run: what
// a run cost the host, not what the simulated system did, so the
// determinism fingerprint leaves it out.
type Counters struct {
	Epochs      int           // epoch-grid evaluations, including the one at Start
	Resolves    int           // event-driven re-solves at fault and heal boundaries
	MemoHits    int           // solves skipped because their exact inputs were unchanged
	Solves      int           // damped fixed points run
	Iterations  int           // steps those fixed points took in total
	Capped      int           // fixed points that ran to their cap without converging
	Recurrences int           // O(k) recurrences the run's M/M/k kernel ran; Snapshot fills it in
	mmk         *analytic.MMk // the kernel solves evaluate through; nil: no memo
}

// At evaluates one M/M/k operating point through the run's kernel.
func (c *Counters) At(lambda, mu float64, k int) analytic.MMkPoint { return c.mmk.At(lambda, mu, k) }

// FixedPoint iterates x ← step(x) at most maxIter times and returns the
// last iterate. step must be a pure function of x, so an iterate that
// returns its own input bit for bit would do so for ever: stopping there
// gives exactly the value the full maxIter steps would. A 2-cycle in the
// last ulp never satisfies the test and runs to the cap.
func (c *Counters) FixedPoint(x float64, maxIter int, step func(float64) float64) float64 {
	c.Solves++
	for i := 0; i < maxIter; i++ {
		next := step(x)
		c.Iterations++
		if next == x {
			return x
		}
		x = next
	}
	c.Capped++
	return x
}

// State is the live fluid tier of one run.
type State struct {
	cfg      Config
	services []Service
	// rate reports the TOTAL offered request rate (requests/s entering
	// the system, before sampling) at virtual time t.
	rate  func(t des.Time) float64
	split *rng.Splitter

	eng       *des.Engine
	warmupEnd des.Time

	points  []point
	memo    []evalKey
	streams []*rng.Source

	lastEval  des.Time // start of the current epoch
	lastRate  float64  // offered rate frozen at lastEval
	lastServe float64  // fraction of reachable background flow served (1 unless saturated open-loop)
	accrued   bool     // accrual window has begun

	// Network-fault coupling frozen at lastEval: the end-to-end fraction
	// of background flow failing unreachable, its partition/gray-link
	// attribution weights, and the bottleneck's shed cause.
	lastUnreach   float64
	lastWPart     float64
	lastWGray     float64
	lastShedCause Cause

	bgArr     float64 // background arrivals accrued in the measured window
	bgShed    float64 // background arrivals shed at the bottleneck
	bgUnreach float64 // background arrivals lost to partitions / gray links

	// Per-cause attribution accruals; resolved to whole requests by
	// largest remainder in ByCause, family by family, so causes sum
	// exactly.
	causeW [numCauses]float64

	// baseK is each service's high-water live server count — the
	// reference that classifies a saturated bottleneck as capacity loss
	// rather than plain overload.
	baseK []int

	satEpochs int
	work      Counters
	stopped   bool
}

// New builds the fluid tier. rate must report the total offered request
// rate at any (nondecreasing) virtual time; services need positive
// MeanServiceS and a Servers callback.
func New(cfg Config, services []Service, rate func(t des.Time) float64, split *rng.Splitter) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rate == nil {
		return nil, fmt.Errorf("hybrid: rate function is required")
	}
	if len(services) == 0 {
		return nil, fmt.Errorf("hybrid: at least one service is required")
	}
	for _, s := range services {
		if s.Servers == nil {
			return nil, fmt.Errorf("hybrid: service %q needs a Servers callback", s.Name)
		}
		if s.MeanServiceS <= 0 || math.IsNaN(s.MeanServiceS) || math.IsInf(s.MeanServiceS, 0) {
			return nil, fmt.Errorf("hybrid: service %q mean service time must be positive and finite, got %v",
				s.Name, s.MeanServiceS)
		}
		if s.Visits < 0 || math.IsNaN(s.Visits) {
			return nil, fmt.Errorf("hybrid: service %q visit factor must be >= 0, got %v", s.Name, s.Visits)
		}
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 50 * des.Millisecond
	}
	if cfg.MaxWaitFactor == 0 {
		cfg.MaxWaitFactor = 100
	}
	st := &State{
		cfg:      cfg,
		services: services,
		rate:     rate,
		split:    split,
		points:   make([]point, len(services)),
		memo:     make([]evalKey, len(services)),
		streams:  make([]*rng.Source, len(services)),
		baseK:    make([]int, len(services)),
	}
	for i, s := range services {
		st.streams[i] = split.Stream("hybrid", s.Name)
	}
	st.work.mmk = new(analytic.MMk) // the run's kernel: every point the tier and the closed solver evaluate
	return st, nil
}

// Active reports whether the fluid tier does anything at all: at sample
// rate 1.0 it is inert (no draws, no accrual) so a full-fidelity run stays
// bit-identical to one with no hybrid attached.
func (st *State) Active() bool { return st.cfg.SampleRate < 1 }

// SampleRate is the configured foreground fraction.
func (st *State) SampleRate() float64 { return st.cfg.SampleRate }

// Start begins the epoch loop. Background accrual covers [warmupEnd, end)
// to match the simulator's measured-window accounting; equilibrium
// injection is live from `at` so warmup traffic also sees background load.
func (st *State) Start(eng *des.Engine, at, warmupEnd des.Time) {
	if !st.Active() {
		return
	}
	st.eng = eng
	st.warmupEnd = warmupEnd
	st.work.Epochs++
	st.eval(at)
	epoch := st.cfg.Epoch
	var tick func(t des.Time)
	tick = func(t des.Time) {
		if st.stopped {
			return
		}
		st.work.Epochs++
		st.accrue(t)
		st.eval(t)
		eng.Post(t+epoch, tick)
	}
	eng.Post(at+epoch, tick)
}

// eval freezes the equilibrium for the epoch starting at t. Per service
// it composes the fault couplings: network loss thins the offered λ
// (severed pairs and gray-link drops carry no background flow), DVFS
// degradation scales the effective µ, and the resilience policy's retry
// amplification inflates λ to λ·E[attempts] before the M/M/k solve.
func (st *State) eval(t des.Time) {
	offered := st.rate(t)
	if math.IsNaN(offered) || math.IsInf(offered, 0) || offered < 0 {
		// A misbehaving rate function (e.g. a degenerate fixed point) must
		// not poison the accrual integrals: a non-finite rate accrued once
		// would corrupt every later Snapshot.
		offered = 0
	}
	st.lastEval = t
	st.lastRate = offered
	st.lastServe = 1
	st.lastUnreach = 0
	st.lastWPart, st.lastWGray = 0, 0
	st.lastShedCause = CauseOverload
	survive := 1.0
	anySat := false
	for i := range st.services {
		s := &st.services[i]
		cut, drop := 0.0, 0.0
		if s.Loss != nil {
			cut, drop = clamp01(s.Loss())
		}
		loss := cut + (1-cut)*drop
		speed := 1.0
		if s.Speed != nil {
			speed = s.Speed()
			if math.IsNaN(speed) || speed < 0 {
				speed = 0
			}
		}
		lambda := offered * s.Visits * (1 - loss)
		mu := speed / s.MeanServiceS
		k := s.Servers()
		if k > st.baseK[i] {
			st.baseK[i] = k
		}
		if s.Visits > 0 {
			// End-to-end survival treats each visited service's incoming
			// edge as an independent delivery requirement — exact for
			// chains, an approximation for branchy trees.
			survive *= 1 - loss
			st.lastWPart += cut
			st.lastWGray += (1 - cut) * drop
		}
		if m := &st.memo[i]; !m.valid || m.lambda != lambda || m.k != k || m.mu != mu {
			amp := st.work.amplification(lambda, mu, k, s.Policy)
			st.points[i] = point{
				MMkPoint: st.work.At(lambda*amp, mu, k),
				capped:   des.FromNanos(st.cfg.MaxWaitFactor * s.MeanServiceS * 1e9),
				amp:      amp,
			}
			*m = evalKey{lambda: lambda, k: k, mu: mu, valid: true}
		} else {
			st.work.MemoHits++
		}
		if st.points[i].Saturated {
			anySat = true
			// Open-loop background flow beyond this bottleneck is shed:
			// the service serves capacity/λ_eff of its offered traffic
			// (retries consume capacity too), and end-to-end conservation
			// is governed by the worst service.
			if !st.cfg.Closed {
				served := 0.0
				if lamEff := lambda * st.points[i].amp; lamEff > 0 && k > 0 && mu > 0 {
					served = float64(k) * mu / lamEff
				}
				if served < st.lastServe {
					st.lastServe = served
					st.lastShedCause = st.shedCauseFor(i, lambda, mu, k, speed)
				}
			}
		}
	}
	st.lastUnreach = 1 - survive
	if anySat {
		st.satEpochs++
	}
}

// shedCauseFor classifies why service i's equilibrium saturated, charging
// one deterministic dominant cause: DVFS degradation first (effective µ
// below nominal), then capacity loss (live servers below the high-water
// count), then a retry storm (stable at one attempt per request,
// saturated only by amplification), else plain overload.
func (st *State) shedCauseFor(i int, lambda, mu float64, k int, speed float64) Cause {
	switch {
	case speed < 1:
		return CauseDegradeFreq
	case k < st.baseK[i]:
		return CauseCapacity
	case k > 0 && mu > 0 && lambda < float64(k)*mu:
		return CauseRetryStorm
	default:
		return CauseOverload
	}
}

// amplification solves the mean-field retry fixed point for one service:
// the per-attempt timeout probability at the amplified rate feeds the
// expected attempt count, which feeds the rate. Damped iteration from
// amp=1 converges to the stable fixed point from below (matching a
// system entering the storm). With a breaker threshold, an equilibrium
// failure rate at or above it holds the breaker open in mean field:
// retries fail fast and the amplification collapses back toward 1.
func (c *Counters) amplification(lambda, mu float64, k int, pol *Policy) float64 {
	if pol == nil || pol.MaxRetries <= 0 || lambda <= 0 || k <= 0 || mu <= 0 {
		return 1
	}
	return c.FixedPoint(1, 32, func(amp float64) float64 {
		pTO := c.At(lambda*amp, mu, k).TimeoutProb(pol.TimeoutS)
		next := analytic.RetryAttempts(pTO, pol.MaxRetries)
		if pol.BreakerThreshold > 0 && pTO >= pol.BreakerThreshold {
			next = 1
		}
		return 0.5*amp + 0.5*next
	})
}

// clamp01 clamps a Loss callback's pair into [0, 1].
func clamp01(cut, drop float64) (float64, float64) {
	c1 := func(v float64) float64 {
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return c1(cut), c1(drop)
}

// accrue folds the epoch that just ended, [lastEval, t), into the
// background counters, clipped to the measured window.
func (st *State) accrue(t des.Time) {
	from := st.lastEval
	if from < st.warmupEnd {
		from = st.warmupEnd
	}
	if t <= from {
		return
	}
	dt := float64(t-from) / 1e9
	bg := st.lastRate * (1 - st.cfg.SampleRate) * dt
	st.bgArr += bg
	if unreach := bg * st.lastUnreach; unreach > 0 {
		st.bgUnreach += unreach
		if w := st.lastWPart + st.lastWGray; w > 0 {
			st.causeW[CausePartition] += unreach * st.lastWPart / w
			st.causeW[CauseGrayLink] += unreach * st.lastWGray / w
		} else {
			st.causeW[CausePartition] += unreach
		}
	}
	if shed := bg * (1 - st.lastUnreach) * (1 - st.lastServe); shed > 0 {
		st.bgShed += shed
		st.causeW[st.lastShedCause] += shed
	}
}

// Resolve re-solves the background equilibrium mid-epoch: the elapsed
// fraction of the current epoch accrues under the outgoing equilibrium
// and a fresh one is frozen from t. Fault and heal boundaries call this
// so partitions, DVFS degrades, gray links, and capacity changes act on
// background flow the instant they fire — not at the next epoch edge.
// Purely analytic (no RNG), so an extra Resolve never perturbs the
// determinism fingerprint's random streams; calls before Start, after
// Finish, or at an already-frozen instant are no-ops.
func (st *State) Resolve(t des.Time) {
	if !st.Active() || st.stopped || st.eng == nil || t < st.lastEval {
		return
	}
	st.work.Resolves++
	st.accrue(t)
	st.eval(t)
}

// Finish folds the final partial epoch up to the measurement horizon.
func (st *State) Finish(end des.Time) {
	if !st.Active() {
		return
	}
	st.stopped = true
	st.accrue(end)
	st.lastEval = end
}

// WaitFor draws the background-contention queue wait a sampled request
// experiences when admitted at service index idx: with probability
// Erlang-C an Exp(kµ−λ) wait, zero otherwise. Saturated services return
// the capped wait (every arrival waits, the equilibrium wait is
// unbounded). Inert (sample rate 1.0) returns 0 without consuming
// randomness.
func (st *State) WaitFor(idx int) des.Time {
	if !st.Active() || idx < 0 || idx >= len(st.points) {
		return 0
	}
	p := &st.points[idx]
	r := st.streams[idx]
	if p.Saturated {
		return p.capped
	}
	if p.PWait <= 0 {
		return 0
	}
	if r.Float64() >= p.PWait {
		return 0
	}
	w := des.FromNanos(r.ExpFloat64() / p.CondRate * 1e9)
	if w > p.capped {
		w = p.capped
	}
	return w
}

// Work returns the tier's live work counters, so the rate callback can
// book the solves it runs on the tier's behalf.
func (st *State) Work() *Counters { return &st.work }

// Snapshot is the background tier's contribution to the run report,
// resolved to whole requests. Completions are arrivals minus shed minus
// unreachable by construction — the conservation identity the validator
// asserts.
type Snapshot struct {
	Arrivals        int64
	Completions     int64
	Shed            int64
	Unreachable     int64
	SaturatedEpochs int
	Work            Counters
}

// Snapshot resolves the accrued background flow.
func (st *State) Snapshot() Snapshot {
	arr := roundCount(st.bgArr)
	unreach := roundCount(st.bgUnreach)
	if unreach > arr {
		unreach = arr
	}
	shed := roundCount(st.bgShed)
	if shed > arr-unreach {
		shed = arr - unreach
	}
	work := st.work
	work.Recurrences, work.mmk = st.work.mmk.Recurrences, nil
	return Snapshot{
		Arrivals:        arr,
		Completions:     arr - shed - unreach,
		Shed:            shed,
		Unreachable:     unreach,
		SaturatedEpochs: st.satEpochs,
		Work:            work,
	}
}

// ByCause buckets the snapshot's lost background flow (Shed +
// Unreachable) by causing fault family. Whole-request resolution uses
// largest-remainder apportionment within each family against the same
// rounded totals Snapshot reports, so the buckets sum exactly to
// Shed + Unreachable — the extended background conservation identity.
// An inert tier books nothing.
func (st *State) ByCause() Losses {
	snap := st.Snapshot()
	var out Losses
	apportion(&out, &st.causeW, snap.Shed, false, CauseOverload)
	apportion(&out, &st.causeW, snap.Unreachable, true, CausePartition)
	return out
}

// apportion distributes total whole requests over the weights of one
// family of causes (the unreachable ones, or the shed ones) by largest
// remainder, ties broken by row order, so the result is deterministic; a
// family without a positive finite weight books everything under fallback.
func apportion(out *Losses, w *[numCauses]float64, total int64, unreachable bool, fallback Cause) {
	if total <= 0 {
		return
	}
	var causes [numCauses]Cause
	n, sum := 0, 0.0
	for c, row := range causeRows {
		if row.unreachable == unreachable && w[c] > 0 && !math.IsNaN(w[c]) && !math.IsInf(w[c], 0) {
			causes[n] = Cause(c)
			n++
			sum += w[c]
		}
	}
	if n == 0 || sum <= 0 {
		out[fallback] += uint64(total)
		return
	}
	var frac [numCauses]float64
	left := total
	for _, c := range causes[:n] {
		exact := float64(total) * w[c] / sum
		base := int64(math.Floor(exact))
		out[c] += uint64(base)
		left -= base
		frac[c] = exact - float64(base)
	}
	slices.SortStableFunc(causes[:n], func(a, b Cause) int { return cmp.Compare(frac[b], frac[a]) })
	for i := 0; left > 0; i++ {
		out[causes[i%n]]++
		left--
	}
}

// roundCount resolves a fractional accrual to a whole-request count,
// saturating instead of invoking the undefined float→int64 conversion on
// non-finite or overflowing values.
func roundCount(v float64) int64 {
	switch {
	case math.IsNaN(v) || v <= 0:
		return 0
	case v >= float64(1<<62):
		return 1 << 62
	}
	return int64(math.Round(v))
}
