// Package dist provides the probability distributions µqSim uses for
// processing times, interarrival gaps, request sizes, and path choices.
//
// All duration-valued samplers work in float64 nanoseconds; conversion to
// the engine's integer clock happens at the boundary (des.FromNanos). Every
// Sample call takes an explicit random stream so that components own their
// streams (see package rng) and runs stay reproducible.
package dist

import (
	"fmt"
	"math"

	"uqsim/internal/rng"
)

// Sampler draws values from a distribution. Duration-valued samplers return
// nanoseconds; dimensionless samplers (e.g. request sizes) document their
// own unit.
type Sampler interface {
	// Sample draws one value using the provided stream.
	Sample(r *rng.Source) float64
	// Mean reports the distribution's expected value (math.NaN if the
	// mean does not exist, e.g. Pareto with shape ≤ 1).
	Mean() float64
}

// Deterministic always returns a fixed value.
type Deterministic struct{ Value float64 }

// NewDeterministic returns a point-mass sampler at v.
func NewDeterministic(v float64) Deterministic { return Deterministic{Value: v} }

func (d Deterministic) Sample(*rng.Source) float64 { return d.Value }
func (d Deterministic) Mean() float64              { return d.Value }
func (d Deterministic) String() string             { return fmt.Sprintf("det(%g)", d.Value) }

// Exponential is the memoryless distribution with the given mean, the
// canonical model for interarrival gaps and lightweight service times.
type Exponential struct{ MeanValue float64 }

// NewExponential returns an exponential sampler with the given mean.
// The mean must be positive.
func NewExponential(mean float64) Exponential {
	if mean <= 0 {
		panic("dist: exponential mean must be positive")
	}
	return Exponential{MeanValue: mean}
}

func (e Exponential) Sample(r *rng.Source) float64 { return r.ExpFloat64() * e.MeanValue }
func (e Exponential) Mean() float64                { return e.MeanValue }
func (e Exponential) String() string               { return fmt.Sprintf("exp(mean=%g)", e.MeanValue) }

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// NewUniform returns a uniform sampler over [lo, hi). Requires lo ≤ hi.
func NewUniform(lo, hi float64) Uniform {
	if hi < lo {
		panic("dist: uniform requires lo <= hi")
	}
	return Uniform{Lo: lo, Hi: hi}
}

func (u Uniform) Sample(r *rng.Source) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }
func (u Uniform) Mean() float64                { return (u.Lo + u.Hi) / 2 }

// Normal is a Gaussian truncated at zero (durations cannot be negative).
// The reported Mean ignores the (assumed small) truncated mass.
type Normal struct{ Mu, Sigma float64 }

// NewNormal returns a zero-truncated normal sampler.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 0 {
		panic("dist: normal sigma must be non-negative")
	}
	return Normal{Mu: mu, Sigma: sigma}
}

func (n Normal) Sample(r *rng.Source) float64 {
	v := n.Mu + r.NormFloat64()*n.Sigma
	if v < 0 {
		return 0
	}
	return v
}
func (n Normal) Mean() float64 { return n.Mu }

// LogNormal has log-space parameters Mu and Sigma: exp(N(Mu, Sigma²)).
// Heavy-ish right tail; a common fit for RPC service times.
type LogNormal struct{ Mu, Sigma float64 }

// LogNormalFromMoments constructs a LogNormal with the given real-space
// mean and standard deviation.
func LogNormalFromMoments(mean, stddev float64) LogNormal {
	if mean <= 0 {
		panic("dist: lognormal mean must be positive")
	}
	cv2 := (stddev * stddev) / (mean * mean)
	sigma2 := math.Log(1 + cv2)
	mu := math.Log(mean) - sigma2/2
	return LogNormal{Mu: mu, Sigma: math.Sqrt(sigma2)}
}

func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(l.Mu + r.NormFloat64()*l.Sigma)
}
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Pareto is the heavy-tailed distribution with minimum Scale and tail index
// Shape: P(X > x) = (Scale/x)^Shape for x ≥ Scale.
type Pareto struct{ Shape, Scale float64 }

// NewPareto returns a Pareto sampler. Shape and Scale must be positive.
func NewPareto(shape, scale float64) Pareto {
	if shape <= 0 || scale <= 0 {
		panic("dist: pareto shape and scale must be positive")
	}
	return Pareto{Shape: shape, Scale: scale}
}

func (p Pareto) Sample(r *rng.Source) float64 {
	u := 1 - r.Float64() // in (0,1]
	return p.Scale / math.Pow(u, 1/p.Shape)
}

func (p Pareto) Mean() float64 {
	if p.Shape <= 1 {
		return math.NaN()
	}
	return p.Shape * p.Scale / (p.Shape - 1)
}

// Erlang is the sum of K independent exponentials; its squared coefficient
// of variation is 1/K, making it a convenient low-variance service model.
type Erlang struct {
	K         int
	MeanValue float64
}

// NewErlang returns an Erlang-K sampler with the given overall mean.
func NewErlang(k int, mean float64) Erlang {
	if k < 1 {
		panic("dist: erlang requires k >= 1")
	}
	if mean <= 0 {
		panic("dist: erlang mean must be positive")
	}
	return Erlang{K: k, MeanValue: mean}
}

func (e Erlang) Sample(r *rng.Source) float64 {
	phaseMean := e.MeanValue / float64(e.K)
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += r.ExpFloat64() * phaseMean
	}
	return sum
}
func (e Erlang) Mean() float64 { return e.MeanValue }

// Weibull with shape K and scale Lambda. Shape < 1 gives a heavy tail,
// shape > 1 a light one.
type Weibull struct{ K, Lambda float64 }

// NewWeibull returns a Weibull sampler. Both parameters must be positive.
func NewWeibull(k, lambda float64) Weibull {
	if k <= 0 || lambda <= 0 {
		panic("dist: weibull parameters must be positive")
	}
	return Weibull{K: k, Lambda: lambda}
}

func (w Weibull) Sample(r *rng.Source) float64 {
	u := 1 - r.Float64()
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// HyperExp is the two-phase hyperexponential H2: with probability P the
// sample is Exp(Mean1), otherwise Exp(Mean2). Its squared coefficient of
// variation is at least 1, making it the standard model for bursty
// service times (fast common case, slow rare case).
type HyperExp struct {
	P            float64
	Mean1, Mean2 float64
}

// NewHyperExp returns an H2 sampler; p in [0,1], means positive.
func NewHyperExp(p, mean1, mean2 float64) HyperExp {
	if p < 0 || p > 1 {
		panic("dist: hyperexp p must be in [0,1]")
	}
	if mean1 <= 0 || mean2 <= 0 {
		panic("dist: hyperexp means must be positive")
	}
	return HyperExp{P: p, Mean1: mean1, Mean2: mean2}
}

func (h HyperExp) Sample(r *rng.Source) float64 {
	mean := h.Mean2
	if r.Float64() < h.P {
		mean = h.Mean1
	}
	return r.ExpFloat64() * mean
}

func (h HyperExp) Mean() float64 { return h.P*h.Mean1 + (1-h.P)*h.Mean2 }
