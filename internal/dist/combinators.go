package dist

import "uqsim/internal/rng"

// Scaled multiplies every sample of Base by Factor. The simulator uses it
// to model DVFS: a stage calibrated at nominal frequency f0 running at f
// samples with Factor = f0/f.
type Scaled struct {
	Base   Sampler
	Factor float64
}

// NewScaled wraps base so every sample is multiplied by factor.
func NewScaled(base Sampler, factor float64) Scaled {
	if base == nil {
		panic("dist: scaled base must not be nil")
	}
	if factor < 0 {
		panic("dist: scale factor must be non-negative")
	}
	return Scaled{Base: base, Factor: factor}
}

func (s Scaled) Sample(r *rng.Source) float64 { return s.Base.Sample(r) * s.Factor }
func (s Scaled) Mean() float64                { return s.Base.Mean() * s.Factor }

// Choice picks an index in [0, len(weights)) with the given weights. It is
// the discrete selector behind probabilistic execution paths and
// inter-microservice path selection.
type Choice struct {
	cum []float64
}

// NewChoice builds a weighted index chooser. Weights must be non-negative
// with positive sum.
func NewChoice(weights []float64) *Choice {
	if len(weights) == 0 {
		panic("dist: choice needs at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dist: choice weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("dist: choice weights must sum to a positive value")
	}
	c := &Choice{cum: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		c.cum[i] = acc
	}
	c.cum[len(c.cum)-1] = 1
	return c
}

// Pick draws a weighted index.
func (c *Choice) Pick(r *rng.Source) int {
	u := r.Float64()
	for i, cw := range c.cum {
		if u <= cw {
			return i
		}
	}
	return len(c.cum) - 1
}

// N reports the number of alternatives.
func (c *Choice) N() int { return len(c.cum) }

// P reports the probability of alternative i (0 when out of range).
func (c *Choice) P(i int) float64 {
	if i < 0 || i >= len(c.cum) {
		return 0
	}
	if i == 0 {
		return c.cum[0]
	}
	return c.cum[i] - c.cum[i-1]
}
