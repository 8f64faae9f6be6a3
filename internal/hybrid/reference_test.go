package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"uqsim/internal/analytic"
)

// amplification solves one retry fixed point with throwaway counters.
func amplification(lambda, mu float64, k int, pol *Policy) float64 {
	var c Counters
	return c.amplification(lambda, mu, k, pol)
}

// refAmplification is the fixed-length loop Counters.FixedPoint replaced:
// always 32 damped steps, converged or not.
func refAmplification(lambda, mu float64, k int, pol *Policy) float64 {
	if pol == nil || pol.MaxRetries <= 0 || lambda <= 0 || k <= 0 || mu <= 0 {
		return 1
	}
	amp := 1.0
	for iter := 0; iter < 32; iter++ {
		pTO := analytic.MMkTimeoutProb(lambda*amp, mu, k, pol.TimeoutS)
		next := analytic.RetryAttempts(pTO, pol.MaxRetries)
		if pol.BreakerThreshold > 0 && pTO >= pol.BreakerThreshold {
			next = 1
		}
		amp = 0.5*amp + 0.5*next
	}
	return amp
}

// TestAmplificationMatchesFixedLengthLoop: stopping at the bitwise fixed
// point returns the value 32 steps would have, bit for bit, from idle
// tiers through retry storms, with and without a breaker threshold.
func TestAmplificationMatchesFixedLengthLoop(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	rhos := []float64{0.05, 0.5, 0.9, 0.99, 0.9999, 1, 1.2, 3}
	var work Counters
	for i := 0; i < 600; i++ {
		k := 1 + r.Intn(64)
		if i%5 == 0 {
			k = 1 + r.Intn(20000)
		}
		mu := math.Exp(r.Float64()*8 - 1)
		rho := rhos[r.Intn(len(rhos))]
		if i%2 == 0 {
			rho = 0.05 + r.Float64()*1.2
		}
		lambda := rho * float64(k) * mu
		pol := &Policy{
			TimeoutS:   math.Exp(r.Float64()*10-8) / mu,
			MaxRetries: r.Intn(5),
		}
		if i%3 == 0 {
			pol.BreakerThreshold = r.Float64()
		}
		if i%50 == 0 {
			pol.TimeoutS = 0
		}
		got, want := work.amplification(lambda, mu, k, pol), refAmplification(lambda, mu, k, pol)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("amplification(%v, %v, %d, %+v) = %v (%#x), fixed-length loop %v (%#x)",
				lambda, mu, k, *pol, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if work.Solves == 0 || work.Iterations >= 32*work.Solves {
		t.Fatalf("%d solves took %d iterations: nothing converged early", work.Solves, work.Iterations)
	}
	if work.Capped == 0 {
		t.Fatal("no case ran to the cap; the unconverged path went untested")
	}
}

// TestFixedPointStopsOnlyAtBitwiseFixedPoint pins the helper's contract: a
// converged iterate ends the solve, a 2-cycle runs to the cap and returns
// what the fixed-length loop would, and the counters say which happened.
func TestFixedPointStopsOnlyAtBitwiseFixedPoint(t *testing.T) {
	var c Counters
	if got := c.FixedPoint(8, 64, func(x float64) float64 { return 0.5*x + 1 }); got != 2 {
		t.Fatalf("contraction to 2 returned %v", got)
	}
	if c.Solves != 1 || c.Capped != 0 || c.Iterations >= 64 {
		t.Fatalf("converged solve: %+v", c)
	}
	flip := func(x float64) float64 { return -x }
	if got := c.FixedPoint(1, 7, flip); got != -1 {
		t.Fatalf("7 steps of a 2-cycle from 1 returned %v, want -1", got)
	}
	if c.Solves != 2 || c.Capped != 1 {
		t.Fatalf("2-cycle must run to the cap: %+v", c)
	}
}
