// Package workload drives request arrivals into the simulator: open-loop
// generators (Poisson or deterministic gaps, optionally with a
// time-varying target rate such as a diurnal pattern), closed-loop clients
// with think times, and session populations.
package workload

import (
	"fmt"
	"math"

	"uqsim/internal/des"
	"uqsim/internal/rng"
)

// Pattern yields the target arrival rate (requests per second) at a given
// virtual time, letting open-loop load vary over a run.
type Pattern interface {
	RateAt(t des.Time) float64
}

// Validator is implemented by patterns that can reject degenerate
// parameters. Config loaders call it to return errors; NewOpenLoop calls
// it to panic early on programmatic misuse, so a bad flash-crowd ramp or
// zero-period diurnal fails at construction instead of looping or dividing
// by zero mid-run.
type Validator interface {
	Validate() error
}

// ConstantRate is a fixed requests-per-second target.
type ConstantRate float64

// RateAt implements Pattern.
func (c ConstantRate) RateAt(des.Time) float64 { return float64(c) }

// Validate rejects negative or non-finite rates. Zero is allowed: it is a
// legitimate "no load" source (the generator idles and polls).
func (c ConstantRate) Validate() error {
	if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) {
		return fmt.Errorf("workload: constant rate must be finite, got %v", float64(c))
	}
	if c < 0 {
		return fmt.Errorf("workload: constant rate must be >= 0, got %v", float64(c))
	}
	return nil
}

// Diurnal is a sinusoidal day/night load pattern (the paper's Fig. 15):
// rate(t) = Base + Amplitude · sin(2π·t/Period + Phase), floored at Floor.
type Diurnal struct {
	Base      float64
	Amplitude float64
	Period    des.Time
	Phase     float64
	Floor     float64
}

// RateAt implements Pattern.
func (d Diurnal) RateAt(t des.Time) float64 {
	if d.Period <= 0 {
		return math.Max(d.Base, d.Floor)
	}
	r := d.Base + d.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(d.Period)+d.Phase)
	return math.Max(r, d.Floor)
}

// Validate rejects a zero or negative period (the pattern would silently
// flatline at Base) and parameters that could yield negative or non-finite
// rates. The amplitude may exceed the base only when a nonnegative floor
// clamps the trough.
func (d Diurnal) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"base", d.Base}, {"amplitude", d.Amplitude}, {"phase", d.Phase}, {"floor", d.Floor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: diurnal %s must be finite, got %v", f.name, f.v)
		}
	}
	if d.Period <= 0 {
		return fmt.Errorf("workload: diurnal period must be positive, got %v", d.Period)
	}
	if d.Base < 0 {
		return fmt.Errorf("workload: diurnal base must be >= 0, got %v", d.Base)
	}
	if d.Amplitude < 0 {
		return fmt.Errorf("workload: diurnal amplitude must be >= 0, got %v (shift the phase instead)", d.Amplitude)
	}
	if d.Floor < 0 {
		return fmt.Errorf("workload: diurnal floor must be >= 0, got %v", d.Floor)
	}
	return nil
}

// Burst is a two-state Markov-modulated (ON/OFF) rate pattern: the load
// alternates between BaseRate and BaseRate+BurstRate, with exponentially
// distributed state holding times. Bursty arrivals are a classic source of
// tail latency that a plain Poisson process understates.
//
// Burst is stateful (the current phase advances as RateAt is queried with
// increasing t); use one instance per generator.
type Burst struct {
	BaseRate  float64
	BurstRate float64
	// MeanOn / MeanOff are the expected burst / quiet durations.
	MeanOn  des.Time
	MeanOff des.Time
	// R drives the state holding times. Required.
	R *rng.Source

	inBurst   bool
	nextFlip  des.Time
	initiated bool
}

// RateAt implements Pattern. Calls must use nondecreasing t (the open-loop
// generator guarantees this).
func (b *Burst) RateAt(t des.Time) float64 {
	if b.R == nil {
		panic("workload: Burst needs a random source")
	}
	if !b.initiated {
		b.initiated = true
		b.nextFlip = t + b.holdTime()
	}
	for t >= b.nextFlip {
		b.inBurst = !b.inBurst
		b.nextFlip += b.holdTime()
	}
	if b.inBurst {
		return b.BaseRate + b.BurstRate
	}
	return b.BaseRate
}

// Validate rejects negative rates and nonpositive mean phase durations.
// RateAt substitutes defensively (a zero mean hold would otherwise flip
// states forever at one instant), but configuration should be rejected
// up front, not silently repaired.
func (b *Burst) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"base_rate", b.BaseRate}, {"burst_rate", b.BurstRate}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: burst %s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("workload: burst %s must be >= 0, got %v", f.name, f.v)
		}
	}
	if b.MeanOn <= 0 {
		return fmt.Errorf("workload: burst mean_on must be positive, got %v", b.MeanOn)
	}
	if b.MeanOff <= 0 {
		return fmt.Errorf("workload: burst mean_off must be positive, got %v", b.MeanOff)
	}
	return nil
}

func (b *Burst) holdTime() des.Time {
	mean := b.MeanOff
	if b.inBurst {
		mean = b.MeanOn
	}
	if mean <= 0 {
		mean = des.Second
	}
	d := des.FromNanos(b.R.ExpFloat64() * float64(mean))
	if d < des.Millisecond {
		d = des.Millisecond
	}
	return d
}

// Process selects the interarrival process of an open-loop generator.
type Process int

// Arrival processes.
const (
	// Poisson draws exponential gaps — memoryless arrivals, the
	// standard open-loop model (and the paper's wrk2 configuration).
	Poisson Process = iota
	// Uniform emits deterministic gaps of exactly 1/rate.
	Uniform
)

// OpenLoop generates arrivals independently of completions. Above a
// system's capacity the backlog grows without bound — exactly the behaviour
// that makes open-loop load generators show the saturation hockey stick.
type OpenLoop struct {
	// Emit receives each arrival. Required.
	Emit func(now des.Time)
	// Pattern sets the target rate over time. Required.
	Pattern Pattern
	// Proc selects the interarrival process (default Poisson).
	Proc Process

	eng     *des.Engine
	r       *rng.Source
	stopped bool
}

// NewOpenLoop builds a generator on the engine with a dedicated stream.
// Patterns implementing Validator are checked here; config loaders should
// validate first to surface the error instead of the panic.
func NewOpenLoop(eng *des.Engine, r *rng.Source, pattern Pattern, emit func(now des.Time)) *OpenLoop {
	if pattern == nil || emit == nil {
		panic("workload: open-loop generator needs a pattern and an emit callback")
	}
	if v, ok := pattern.(Validator); ok {
		if err := v.Validate(); err != nil {
			panic(err.Error())
		}
	}
	return &OpenLoop{Emit: emit, Pattern: pattern, eng: eng, r: r}
}

// Fire is the generator's handler: an arrival, which schedules the next,
// or the end of an idle poll. A stopped generator drops both.
func (g *OpenLoop) Fire(t des.Time, k des.Kind) {
	if g.stopped {
		return
	}
	if k == des.KindArrival {
		g.Emit(t)
	}
	g.scheduleNext(t)
}

// Start schedules the first arrival at (or after) virtual time at.
func (g *OpenLoop) Start(at des.Time) {
	g.stopped = false
	g.scheduleNext(at)
}

// Stop halts generation after the currently scheduled arrival is dropped.
func (g *OpenLoop) Stop() { g.stopped = true }

func (g *OpenLoop) scheduleNext(from des.Time) {
	rate := g.Pattern.RateAt(from)
	if rate <= 0 {
		// Idle period: poll again in 1ms of virtual time.
		g.eng.PostTo(from+des.Millisecond, g, des.KindIdlePoll)
		return
	}
	meanGapNs := 1e9 / rate
	var gap des.Time
	switch g.Proc {
	case Uniform:
		gap = des.FromNanos(meanGapNs)
	default:
		gap = des.FromNanos(g.r.ExpFloat64() * meanGapNs)
	}
	if gap < 1 {
		gap = 1
	}
	g.eng.PostTo(from+gap, g, des.KindArrival)
}

// ClosedLoop models N users who each issue one request, wait for its
// completion, think, and repeat. The sim layer must call RequestDone for
// every completion it attributes to this generator.
type ClosedLoop struct {
	// Emit receives each arrival. Required.
	Emit func(now des.Time)
	// Think samples the per-user think time in nanoseconds (nil: 0).
	Think func(r *rng.Source) float64

	Users int

	eng *des.Engine
	r   *rng.Source
}

// NewClosedLoop builds a closed-loop generator with the given user count.
func NewClosedLoop(eng *des.Engine, r *rng.Source, users int, emit func(now des.Time)) *ClosedLoop {
	if users < 1 {
		panic("workload: closed loop needs at least one user")
	}
	if emit == nil {
		panic("workload: closed loop needs an emit callback")
	}
	return &ClosedLoop{Emit: emit, Users: users, eng: eng, r: r}
}

// Start issues each user's first request at virtual time at.
func (g *ClosedLoop) Start(at des.Time) {
	for i := 0; i < g.Users; i++ {
		g.eng.PostTo(at, g, des.KindArrival)
	}
}

// Fire issues one user's request.
func (g *ClosedLoop) Fire(t des.Time, _ des.Kind) { g.Emit(t) }

// RequestDone schedules the issuing user's next request after think time.
func (g *ClosedLoop) RequestDone(now des.Time) {
	gap := des.Time(0)
	if g.Think != nil {
		gap = des.FromNanos(g.Think(g.r))
	}
	g.eng.PostTo(now+gap, g, des.KindArrival)
}
