package hybrid

import (
	"math"
	"math/rand"
	"sort"
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

// refApportion is the string-keyed apportionment the cause table replaced:
// largest remainder over a map of weights, keys visited in sorted order,
// ties broken by key.
func refApportion(out map[string]int64, weights map[string]float64, total int64, fallback string) {
	if total <= 0 {
		return
	}
	keys := make([]string, 0, len(weights))
	sum := 0.0
	for k, w := range weights {
		if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
			keys = append(keys, k)
			sum += w
		}
	}
	if len(keys) == 0 || sum <= 0 {
		out[fallback] += total
		return
	}
	sort.Strings(keys)
	type rem struct {
		key  string
		frac float64
	}
	rems := make([]rem, 0, len(keys))
	left := total
	for _, k := range keys {
		exact := float64(total) * weights[k] / sum
		base := int64(math.Floor(exact))
		out[k] += base
		left -= base
		rems = append(rems, rem{key: k, frac: exact - float64(base)})
	}
	sort.SliceStable(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].key < rems[j].key
	})
	for i := 0; left > 0; i++ {
		out[rems[i%len(rems)].key]++
		left--
	}
}

// TestApportionMatchesReference: the table's apportionment books the same
// count under every cause as the string-keyed one, family by family, on
// random weights and totals — zero, negative, NaN and infinite weights,
// absent causes, equal weights (tied remainders) and zero totals included.
func TestApportionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	special := []float64{0, -1, math.NaN(), math.Inf(1), 1, 1, 0.5, 1e-12}
	for i := 0; i < 20000; i++ {
		var w [numCauses]float64
		ref := make(map[string]int64)
		var got Losses
		for _, unreachable := range []bool{false, true} {
			weights := make(map[string]float64)
			for c, row := range causeRows {
				if row.unreachable != unreachable || r.Intn(4) == 0 {
					continue // absent from the map, zero in the array
				}
				v := r.Float64() * 10
				if r.Intn(3) == 0 {
					v = special[r.Intn(len(special))]
				}
				w[c], weights[row.name] = v, v
			}
			total := int64(r.Intn(50))
			if r.Intn(5) == 0 {
				total = int64(r.Intn(1 << 20))
			}
			fallback := CauseOverload
			if unreachable {
				fallback = CausePartition
			}
			refApportion(ref, weights, total, fallback.String())
			apportion(&got, &w, total, unreachable, fallback)
		}
		for c := range got {
			if name := Cause(c).String(); uint64(ref[name]) != got[c] {
				t.Fatalf("case %d: %s got %d, reference %d (weights %v, got %v, ref %v)",
					i, name, got[c], ref[name], w, got, ref)
			}
		}
	}
}
